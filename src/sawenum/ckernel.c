/* Compiled twin of engine.sweep for one rectangle width.
 *
 * The state layout, the kink move (engine.transitions), the two prune bounds
 * (pruning.additional_steps_packed at column boundaries and
 * pruning.additional_steps_mid after each row) and the boundary shift are
 * line-for-line ports of the Python engine.  A generating function is kept
 * as residues modulo each of ``nmod`` moduli; every operation on it is an
 * addition or a degree shift, so working modulo m gives the exact ledger
 * modulo m, and all moduli share one pass over the states.
 *
 * A state's nonzero degrees span only a few consecutive values, so each
 * state stores a window of ``win`` degrees starting at its own base degree
 * instead of all n_max + 1; a sum that does not fit fails with error 5 and
 * the caller retries with a wider window, up to win = n_max + 1, which always
 * fits.  Moduli may be anything from 2 to 2**64 - 1.
 *
 * Error codes: 1 forbidden kink state, 2 occupied vertical edge above the
 * lattice, 3 out of memory, 4 bad arguments, 5 degree window overflow.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

#define MAX_SLOTS 30
#define MAX_TARGETS 32
#define MAX_NMAX (1 << 30) /* keeps degree arithmetic inside an int */

/* Residue layout of a state: ``nmod`` rows of ``win`` residues, row i for
 * modulus i, column j for degree base + j. */
typedef struct {
    int n, nmod, win;
    const u64 *mod;
} Ring;

/* ------------------------------------------------------------------------
 * State map: insertion-ordered entries (key, residues, base degree and the
 * degree range [lo, hi] outside which they are zero; empty when lo > hi)
 * behind an open-addressing index. */

typedef struct {
    u64 key;
    uint32_t entry; /* entry number + 1, 0 = empty slot */
} Slot;

typedef struct {
    u64 *keys;
    u64 *coeffs; /* count * stride residues */
    int32_t *base, *lo, *hi;
    int32_t *top; /* highest degree that can still complete; < 0: none */
    Slot *index;
    size_t count, cap, index_size;
    int stride;
} Map;

static u64 hash_key(u64 k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

static int map_init(Map *m, int stride)
{
    memset(m, 0, sizeof *m);
    m->stride = stride;
    m->cap = 1024;
    m->index_size = 4096;
    m->keys = malloc(m->cap * sizeof(u64));
    m->coeffs = malloc(m->cap * stride * sizeof(u64));
    m->base = malloc(m->cap * sizeof(int32_t));
    m->lo = malloc(m->cap * sizeof(int32_t));
    m->hi = malloc(m->cap * sizeof(int32_t));
    m->top = malloc(m->cap * sizeof(int32_t));
    m->index = calloc(m->index_size, sizeof(Slot));
    return m->keys && m->coeffs && m->base && m->lo && m->hi && m->top
           && m->index ? 0 : 3;
}

static void map_free(Map *m)
{
    free(m->keys);
    free(m->coeffs);
    free(m->base);
    free(m->lo);
    free(m->hi);
    free(m->top);
    free(m->index);
    memset(m, 0, sizeof *m);
}

static void map_clear(Map *m)
{
    m->count = 0;
    memset(m->index, 0, m->index_size * sizeof(Slot));
}

static int map_grow_index(Map *m)
{
    size_t size = m->index_size * 2;
    Slot *index = calloc(size, sizeof(Slot));
    if (!index)
        return 3;
    for (size_t i = 0; i < m->count; i++) {
        size_t h = hash_key(m->keys[i]) & (size - 1);
        while (index[h].entry)
            h = (h + 1) & (size - 1);
        index[h].key = m->keys[i];
        index[h].entry = (uint32_t)(i + 1);
    }
    free(m->index);
    m->index = index;
    m->index_size = size;
    return 0;
}

static int grow(void **p, size_t bytes)
{
    void *q = realloc(*p, bytes);
    if (!q)
        return 3;
    *p = q;
    return 0;
}

#define NO_ENTRY ((size_t)-1)

/* Entry number of ``key``, or NO_ENTRY with *slot set to where it would go. */
static size_t map_find(const Map *m, u64 key, size_t *slot)
{
    size_t mask = m->index_size - 1;
    size_t h = hash_key(key) & mask;
    uint32_t e;
    while ((e = m->index[h].entry) != 0) {
        if (m->index[h].key == key)
            return e - 1;
        h = (h + 1) & mask;
    }
    *slot = h;
    return NO_ENTRY;
}

/* New empty entry for ``key`` at index slot ``h`` from map_find, with
 * degree cap ``top`` (NO_ENTRY: no memory). */
static size_t map_insert(Map *m, u64 key, size_t h, int top)
{
    if (m->count == m->cap) {
        size_t cap = m->cap + m->cap / 2; /* 1.5x: the pools dominate memory */
        if (grow((void **)&m->keys, cap * sizeof(u64))
            || grow((void **)&m->coeffs, cap * m->stride * sizeof(u64))
            || grow((void **)&m->base, cap * sizeof(int32_t))
            || grow((void **)&m->lo, cap * sizeof(int32_t))
            || grow((void **)&m->hi, cap * sizeof(int32_t))
            || grow((void **)&m->top, cap * sizeof(int32_t)))
            return NO_ENTRY;
        m->cap = cap;
    }
    if (m->count >= UINT32_MAX - 1)
        return NO_ENTRY;
    size_t i = m->count++;
    m->keys[i] = key;
    m->index[h].key = key;
    m->index[h].entry = (uint32_t)(i + 1);
    memset(m->coeffs + i * m->stride, 0, m->stride * sizeof(u64));
    m->base[i] = 0;
    m->lo[i] = 1; /* empty: lo > hi */
    m->hi[i] = 0;
    m->top[i] = top;
    if (2 * m->count > m->index_size && map_grow_index(m))
        return NO_ENTRY;
    return i;
}

/* (a + b) mod ``mod`` for a, b < mod, without overflow for any mod < 2**64:
 * a sum that wraps past 2**64 is at least mod, and wrapping back is exact. */
static inline u64 add_mod(u64 a, u64 b, u64 mod)
{
    u64 x = a + b;
    return x < a || x >= mod ? x - mod : x;
}

static int zero_at(const Ring *R, const u64 *v, int j)
{
    for (int i = 0; i < R->nmod; i++)
        if (v[i * R->win + j])
            return 0;
    return 1;
}

/* Shrink entry i's degree range past degrees that are zero modulo every
 * modulus; returns 0 when the entry is empty. */
static int trim(const Ring *R, Map *m, size_t i)
{
    const u64 *v = m->coeffs + i * m->stride;
    int b = m->base[i];
    while (m->lo[i] <= m->hi[i] && zero_at(R, v, m->lo[i] - b))
        m->lo[i]++;
    while (m->hi[i] >= m->lo[i] && zero_at(R, v, m->hi[i] - b))
        m->hi[i]--;
    return m->lo[i] <= m->hi[i];
}

/* Entry j of ``dst`` += x**k * entry i of ``src``, truncated at dst's
 * degree cap; returns 5 when the sum spans more than ``win`` degrees. */
static int add_shifted(const Ring *R, Map *dst, size_t j, const Map *src,
                       size_t i, int k)
{
    int lo = src->lo[i] + k, hi = src->hi[i] + k;
    if (hi > dst->top[j])
        hi = dst->top[j];
    if (lo > hi)
        return 0;
    u64 *dv = dst->coeffs + j * dst->stride;
    const u64 *sv = src->coeffs + i * src->stride + (src->lo[i] - src->base[i]);
    if (dst->lo[j] > dst->hi[j]) {
        dst->base[j] = dst->lo[j] = lo;
        dst->hi[j] = hi;
    } else {
        int nlo = lo < dst->lo[j] ? lo : dst->lo[j];
        int nhi = hi > dst->hi[j] ? hi : dst->hi[j];
        if (nhi - nlo + 1 > R->win)
            return 5;
        if (nlo < dst->base[j] || nhi >= dst->base[j] + R->win) {
            /* re-base the window at nlo: move the live degrees in place
             * and zero the rest of the row */
            int from = dst->lo[j] - dst->base[j], to = dst->lo[j] - nlo;
            int len = dst->hi[j] - dst->lo[j] + 1;
            for (int r = 0; r < R->nmod; r++) {
                u64 *row = dv + r * R->win;
                memmove(row + to, row + from, len * sizeof(u64));
                memset(row, 0, to * sizeof(u64));
                memset(row + to + len, 0, (R->win - to - len) * sizeof(u64));
            }
            dst->base[j] = nlo;
        }
        dst->lo[j] = nlo;
        dst->hi[j] = nhi;
    }
    int off = lo - dst->base[j];
    for (int r = 0; r < R->nmod; r++) {
        u64 mod = R->mod[r];
        u64 *d = dv + r * R->win + off;
        const u64 *s = sv + r * R->win;
        for (int t = 0; t <= hi - lo; t++)
            d[t] = add_mod(d[t], s[t], mod);
    }
    return 0;
}

/* Full-length vector (nmod rows of n residues) += entry i of ``src``. */
static void add_full(const Ring *R, u64 *dst, const Map *src, size_t i)
{
    const u64 *v = src->coeffs + i * src->stride;
    int b = src->base[i];
    for (int r = 0; r < R->nmod; r++) {
        u64 mod = R->mod[r];
        for (int d = src->lo[i]; d <= src->hi[i]; d++)
            dst[r * R->n + d] = add_mod(dst[r * R->n + d],
                                        v[r * R->win + d - b], mod);
    }
}

/* ------------------------------------------------------------------------
 * Signature algebra (signatures.accessible_targets), on doubled coordinates
 * so that the half-integer insertion gap stays an integer. */

typedef struct {
    int lo, hi;
} Arc;

static int match_arcs(const int *edges, int nslots, Arc *arcs)
{
    int stack[MAX_SLOTS], sp = 0, n = 0;
    for (int pos = 0; pos < nslots; pos++) {
        if (edges[pos] == 1) {
            stack[sp++] = pos;
        } else if (edges[pos] == 2) {
            arcs[n].lo = stack[--sp];
            arcs[n].hi = pos;
            n++;
        }
    }
    return n;
}

/* True if some arc other than ``skip`` has exactly one endpoint strictly
 * between the doubled coordinates lo2 and hi2. */
static int blocked(const Arc *arcs, int narcs, int lo2, int hi2, int skip)
{
    for (int i = 0; i < narcs; i++) {
        if (i == skip)
            continue;
        int a = lo2 < 2 * arcs[i].lo && 2 * arcs[i].lo < hi2;
        int b = lo2 < 2 * arcs[i].hi && 2 * arcs[i].hi < hi2;
        if (a != b)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * The kink move (engine.transitions). */

typedef struct {
    u64 key;
    int k;
} Target;

typedef struct {
    Target t[MAX_TARGETS];
    int n;
    int shift, top_row, r, width, fb;
} Emitter;

static u64 flagged(const Emitter *em, u64 key)
{
    if (em->r == 0)
        key |= 1ULL << em->fb;
    if (em->r == em->width)
        key |= 1ULL << (em->fb + 1);
    return key;
}

static void push(Emitter *em, u64 key, int k)
{
    em->t[em->n].key = key;
    em->t[em->n].k = k;
    em->n++;
}

static void emit(Emitter *em, u64 newkey, int k)
{
    int s_up = (newkey >> (em->shift + 2)) & 3;
    if (s_up) {
        if (em->top_row)
            return;
        int t = (newkey >> (em->shift + 4)) & 3;
        if (t && !(s_up == 1 && t == 2))
            return;
    }
    push(em, flagged(em, newkey), k);
}

/* Fills ``em`` with the targets of ``key`` at row r; returns -1 on a
 * forbidden kink, else 1 if the source completes a spanning walk, else 0. */
static int transitions(u64 key, int r, int width, int first_col, Emitter *em)
{
    int nslots = width + 2;
    int fb = 2 * nslots;
    u64 edges_mask = (1ULL << fb) - 1;
    int shift = 2 * r;
    int a = (key >> shift) & 3;
    int b = (key >> (shift + 2)) & 3;
    u64 base = key & ~(15ULL << shift);
    u64 rest = base & edges_mask;
    int top_row = r == width;
    int above = top_row ? 0 : (base >> (shift + 4)) & 3;
    u64 both_flags = 3ULL << fb;
    int completes = 0;

    em->n = 0;
    em->shift = shift;
    em->top_row = top_row;
    em->r = r;
    em->width = width;
    em->fb = fb;

    if (a && b) {
        if (a != 1 || b != 2)
            return -1;
        u64 out = flagged(em, base);
        if (rest == 0)
            completes = (out & both_flags) == both_flags;
        else
            push(em, out, 0);
    } else if (a || b) {
        int s = a ? a : b;
        push(em, flagged(em, base | ((u64)s << shift)), 1);
        if (!top_row && (above == 0 || (s == 1 && above == 2)))
            push(em, flagged(em, base | ((u64)s << (shift + 2))), 1);
        if (s == 3) {
            u64 out = flagged(em, base);
            if (rest == 0)
                completes = (out & both_flags) == both_flags;
            else
                push(em, out, 0);
        }
    } else {
        push(em, key, 0);
        if (key == 0) {
            if (first_col) {
                push(em, flagged(em, 3ULL << shift), 1);
                if (!top_row) {
                    push(em, flagged(em, 3ULL << (shift + 2)), 1);
                    push(em, flagged(em, 15ULL << shift), 2);
                }
            }
        } else if (rest) {
            int edges[MAX_SLOTS];
            Arc arcs[MAX_SLOTS];
            for (int i = 0; i < nslots; i++)
                edges[i] = (base >> (2 * i)) & 3;
            int narcs = match_arcs(edges, nslots, arcs);
            int gap2 = 2 * r + 1;
            for (int f = 0; f < nslots; f++) {
                if (edges[f] != 3)
                    continue;
                int lo2 = 2 * f < gap2 ? 2 * f : gap2;
                int hi2 = 2 * f < gap2 ? gap2 : 2 * f;
                if (blocked(arcs, narcs, lo2, hi2, -1))
                    continue;
                int fshift = 2 * f;
                u64 relab;
                u64 new_lab;
                if (f > r + 1) {
                    relab = (base & ~(3ULL << fshift)) | (2ULL << fshift);
                    new_lab = 1;
                } else {
                    relab = (base & ~(3ULL << fshift)) | (1ULL << fshift);
                    new_lab = 2;
                }
                emit(em, relab | (new_lab << shift), 1);
                emit(em, relab | (new_lab << (shift + 2)), 1);
                emit(em, relab | (new_lab << shift) | (3ULL << (shift + 2)), 2);
                emit(em, relab | (3ULL << shift) | (new_lab << (shift + 2)), 2);
            }
            for (int i = 0; i < narcs; i++) {
                int lo = arcs[i].lo, hi = arcs[i].hi;
                int near2 = 2 * lo < gap2 && gap2 < 2 * hi ? 2 * lo
                          : 2 * hi < gap2 ? 2 * hi : 2 * lo;
                int lo2 = near2 < gap2 ? near2 : gap2;
                int hi2 = near2 < gap2 ? gap2 : near2;
                if (blocked(arcs, narcs, lo2, hi2, i))
                    continue;
                if (lo < r && hi > r + 1) {
                    emit(em, base | (2ULL << shift) | (1ULL << (shift + 2)), 2);
                } else if (hi < r) {
                    u64 relab = (base & ~(3ULL << (2 * hi))) | (1ULL << (2 * hi));
                    emit(em, relab | (2ULL << shift) | (2ULL << (shift + 2)), 2);
                } else {
                    u64 relab = (base & ~(3ULL << (2 * lo))) | (2ULL << (2 * lo));
                    emit(em, relab | (1ULL << shift) | (1ULL << (shift + 2)), 2);
                }
            }
        }
    }
    return completes;
}

/* ------------------------------------------------------------------------
 * Prune bounds. */

static int imax(int a, int b) { return a > b ? a : b; }

/* pruning.additional_steps_packed: row q of ``ekey`` at bits 2q..2q+1. */
static int steps_boundary(u64 ekey, int bottom, int top, int width, int column)
{
    int cost = 0, depth = 0, lo = -1, hi = -1, has_free = 0, top_reach = 0;
    int stack[MAX_SLOTS + 1];
    stack[0] = 0;
    for (int pos = 0; pos <= width; pos++) {
        int e = (ekey >> (2 * pos)) & 3;
        if (!e)
            continue;
        if (lo < 0)
            lo = pos;
        hi = pos;
        if (e == 1) {
            stack[++depth] = 0;
            cost -= pos;
        } else if (e == 2) {
            int reach = stack[depth--];
            cost += pos + 2 * reach;
            if (depth) {
                if (reach + 1 > stack[depth])
                    stack[depth] = reach + 1;
            } else if (reach > top_reach) {
                top_reach = reach;
            }
        } else {
            has_free = 1;
        }
    }
    if (lo >= 0) {
        int trip = has_free ? 1 : 2;
        if (!bottom)
            cost += trip * lo;
        if (!top)
            cost += trip * (width - hi);
        cost += trip * imax(0, width - column - top_reach);
    } else {
        if (!(bottom && top))
            cost += width;
        cost += imax(0, width - column - top_reach);
    }
    return cost;
}

/* pruning.additional_steps_mid, right after the kink move at row r. */
static int steps_mid(u64 key, int r, int width, int bottom, int top, int column)
{
    int cost = 0, depth = 0, lo = -1, hi = -1, has_free = 0, top_reach = 0;
    int lnew[MAX_SLOTS + 1], rstack[MAX_SLOTS + 1];
    int nslots = width + 2;
    rstack[0] = 0;
    for (int slot = 0; slot < nslots; slot++) {
        int e = (key >> (2 * slot)) & 3;
        if (!e)
            continue;
        int pos = slot <= r + 1 ? slot : slot - 1;
        if (lo < 0)
            lo = pos;
        hi = pos;
        if (e == 1) {
            depth++;
            lnew[depth] = slot <= r;
            rstack[depth] = 0;
            cost -= pos;
        } else if (e == 2) {
            int lower_is_new = lnew[depth];
            int s = rstack[depth];
            depth--;
            int reach, horiz;
            if (lower_is_new) {
                reach = s > 1 ? s : 1;
                horiz = 2 * reach - (slot <= r ? 2 : 1);
            } else {
                reach = s;
                horiz = 2 * reach;
            }
            cost += pos + horiz;
            if (depth) {
                if (reach + 1 > rstack[depth])
                    rstack[depth] = reach + 1;
            } else if (reach > top_reach) {
                top_reach = reach;
            }
        } else {
            has_free = 1;
        }
    }
    int new_any = (key & ((1ULL << (2 * (r + 1))) - 1)) ? 1 : 0;
    int reached = column + new_any;
    int credit = imax(0, top_reach - new_any);
    if (lo >= 0) {
        int trip = has_free ? 1 : 2;
        if (!bottom)
            cost += trip * lo;
        if (!top)
            cost += trip * (width - hi);
        cost += trip * imax(0, width - reached - credit);
    } else {
        if (!(bottom && top))
            cost += width;
        cost += imax(0, width - reached - credit);
    }
    return cost;
}

/* Zero every degree of entry i above n_max - n_add (all of them when
 * n_add > n_max). */
static void truncate_live(const Ring *R, Map *m, size_t i, int n_add)
{
    int n_max = R->n - 1;
    int keep = n_add <= n_max ? n_max - n_add + 1 : 0;
    if (m->hi[i] < keep || m->lo[i] > m->hi[i])
        return;
    u64 *v = m->coeffs + i * m->stride;
    int from = keep > m->lo[i] ? keep : m->lo[i];
    for (int r = 0; r < R->nmod; r++)
        for (int d = from; d <= m->hi[i]; d++)
            v[r * R->win + d - m->base[i]] = 0;
    if (keep <= m->lo[i])
        m->hi[i] = m->lo[i] - 1; /* emptied */
    else
        m->hi[i] = keep - 1;
}

/* ------------------------------------------------------------------------
 * The sweep. */

typedef struct {
    int width, fb, prune, n_max;
    u64 edges_mask, flags_mask, rows_mask;
} Geometry;

static u64 shifted_key(const Geometry *g, u64 key)
{
    return (((key & g->edges_mask) << 2) & g->edges_mask) | (key & g->flags_mask);
}

/* Highest degree of ``key`` that can still complete, right after the kink
 * move at row r of column c.  Truncating each addend there equals the
 * engine's prune of the summed state: after rows below the top the
 * mid-column bound, after the top row the next column's boundary bound on
 * the shifted key. */
static int degree_cap(const Geometry *g, u64 key, int r, int c)
{
    if (!g->prune)
        return g->n_max;
    int bottom = (key >> g->fb) & 1, top = (key >> (g->fb + 1)) & 1;
    int n_add;
    if (r != g->width)
        n_add = steps_mid(key & g->edges_mask, r, g->width, bottom, top,
                          c < g->width ? c : g->width);
    else
        n_add = steps_boundary((shifted_key(g, key) >> 2) & g->rows_mask,
                               bottom, top, g->width, c + 1);
    return g->n_max - n_add;
}

/* ledger: (l_max + 1) * nmod * (n_max + 1) residues, column by column and
 * within a column modulus by modulus.  stats[0] = peak live states entering
 * one row, stats[1] = live states summed over all rows. */
int sawenum_sweep(int width, int l_max, int n_max, const u64 *moduli,
                  int nmod, int win, int prune, u64 *ledger, u64 *stats)
{
    int nslots = width + 2;
    if (width < 0 || l_max < 0 || n_max < 0 || n_max > MAX_NMAX || nmod < 1
        || win < 1 || win > n_max + 1 || nslots > MAX_SLOTS
        || 2 * nslots + 2 > 62)
        return 4;
    for (int i = 0; i < nmod; i++)
        if (moduli[i] < 2)
            return 4;
    Ring ring = {n_max + 1, nmod, win, moduli}, *R = &ring;
    int fb = 2 * nslots;
    Geometry geo = {width, fb, prune, n_max, (1ULL << fb) - 1, 3ULL << fb,
                    (1ULL << (2 * (width + 1))) - 1};
    Map cur, nxt;
    Emitter em;
    int err = 0;
    size_t j, h = 0;

    memset(ledger, 0, (size_t)(l_max + 1) * nmod * R->n * sizeof(u64));
    stats[0] = stats[1] = 0;
    if (map_init(&cur, win * nmod) || map_init(&nxt, win * nmod)) {
        err = 3;
        goto done;
    }
    map_find(&cur, 0, &h);
    if (map_insert(&cur, 0, h, n_max) == NO_ENTRY) {
        err = 3;
        goto done;
    }
    for (int i = 0; i < nmod; i++)
        cur.coeffs[i * win] = 1;
    cur.lo[0] = cur.hi[0] = 0;
    if (prune) /* the seed's boundary prune */
        truncate_live(R, &cur, 0,
                      steps_boundary(0, 0, 0, width, 0));

    for (int c = 0; c <= l_max; c++) {
        u64 *comp = ledger + (size_t)c * nmod * R->n;
        for (int r = 0; r <= width; r++) {
            map_clear(&nxt);
            size_t live = 0;
            for (size_t i = 0; i < cur.count; i++) {
                if (!trim(R, &cur, i))
                    continue;
                live++;
                int completes = transitions(cur.keys[i], r, width, c == 0, &em);
                if (completes < 0) {
                    err = 1;
                    goto done;
                }
                if (completes)
                    add_full(R, comp, &cur, i);
                for (int t = 0; t < em.n; t++) {
                    u64 tk = em.t[t].key;
                    if ((j = map_find(&nxt, tk, &h)) == NO_ENTRY) {
                        int top = degree_cap(&geo, tk, r, c);
                        if (cur.lo[i] + em.t[t].k > top)
                            continue; /* nothing that could still complete */
                        if ((j = map_insert(&nxt, tk, h, top)) == NO_ENTRY) {
                            err = 3;
                            goto done;
                        }
                    }
                    if ((err = add_shifted(R, &nxt, j, &cur, i, em.t[t].k)))
                        goto done;
                }
            }
            stats[1] += live;
            if (live > stats[0])
                stats[0] = live;
            Map tmp = cur;
            cur = nxt;
            nxt = tmp;
        }
        /* boundary shift: retire the top kink slot, open one below row 0 */
        map_clear(&nxt);
        for (size_t i = 0; i < cur.count; i++) {
            u64 key = cur.keys[i];
            if ((c == 0 && key == 0) || !trim(R, &cur, i))
                continue; /* no more walk starts after column 0 */
            if ((key >> (2 * (width + 1))) & 3) {
                err = 2;
                goto done;
            }
            map_find(&nxt, shifted_key(&geo, key), &h);
            j = map_insert(&nxt, shifted_key(&geo, key), h, n_max);
            if (j == NO_ENTRY) {
                err = 3;
                goto done;
            }
            if ((err = add_shifted(R, &nxt, j, &cur, i, 0)))
                goto done;
        }
        Map tmp = cur;
        cur = nxt;
        nxt = tmp;
    }
done:
    map_free(&cur);
    map_free(&nxt);
    return err;
}
