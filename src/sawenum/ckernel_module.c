/* CPython extension around the sweep kernel: ckernel.c, unchanged, compiled
 * into a module whose sweep() hands the ledger to Python as lists of ints.
 * ckernel.c stays a plain C file, built and tested on its own as well.
 *
 * sweep(width, l_max, n_max, prune) -> (err, ledger, stats): err is
 * sawenum_sweep's error code, ledger its l_max + 1 columns of n_max + 1
 * exact counts (None on an error) and stats the dict of its six counters. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include "ckernel.c"

/* A count as a Python int: one word below 2**64, (high << 64) | low above. */
static PyObject *count_to_int(u128 v)
{
    if (!(v >> 64))
        return PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *high = PyLong_FromUnsignedLongLong((unsigned long long)(v >> 64));
    PyObject *low = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *shift = PyLong_FromLong(64), *shifted = NULL, *sum = NULL;
    if (high && low && shift && (shifted = PyNumber_Lshift(high, shift)))
        sum = PyNumber_Or(shifted, low);
    Py_XDECREF(high);
    Py_XDECREF(low);
    Py_XDECREF(shift);
    Py_XDECREF(shifted);
    return sum;
}

static PyObject *sweep(PyObject *self, PyObject *args)
{
    int width, l_max, n_max, prune;
    u64 stats[6] = {0}; /* an argument error returns before setting them */
    (void)self;
    if (!PyArg_ParseTuple(args, "iiip", &width, &l_max, &n_max, &prune))
        return NULL;
    /* sawenum_sweep refuses negative sizes before it writes the ledger */
    size_t cols = l_max < 0 ? 0 : (size_t)l_max + 1;
    size_t n = n_max < 0 ? 0 : (size_t)n_max + 1;
    if (cols && n > PY_SSIZE_T_MAX / sizeof(u128) / cols)
        return PyErr_NoMemory();
    u128 *out = PyMem_Malloc(cols * n * sizeof(u128));
    if (!out)
        return PyErr_NoMemory();
    int err = sawenum_sweep(width, l_max, n_max, prune, out, stats);
    PyObject *ledger = err ? Py_NewRef(Py_None) : PyList_New((Py_ssize_t)cols);
    for (size_t c = 0; !err && ledger && c < cols; c++) {
        PyObject *column = PyList_New((Py_ssize_t)n);
        for (size_t d = 0; column && d < n; d++) {
            PyObject *v = count_to_int(out[c * n + d]);
            if (!v)
                Py_CLEAR(column);
            else
                PyList_SET_ITEM(column, d, v);
        }
        if (!column)
            Py_CLEAR(ledger);
        else
            PyList_SET_ITEM(ledger, c, column);
    }
    PyMem_Free(out);
    if (!ledger)
        return NULL;
    return Py_BuildValue(
        "iN{sKsKsKsKsKsK}", err, ledger,
        "peak_states", (unsigned long long)stats[0],
        "state_rows", (unsigned long long)stats[1],
        "peak_bytes", (unsigned long long)stats[2],
        "regrows", (unsigned long long)stats[3],
        "merged", (unsigned long long)stats[4],
        "wide_rows", (unsigned long long)stats[5]);
}

static PyMethodDef methods[] = {
    {"sweep", sweep, METH_VARARGS,
     "sweep(width, l_max, n_max, prune) -> (err, ledger | None, stats)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_ckernel",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    return PyModule_Create(&module);
}
