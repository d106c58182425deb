/* Compiled twin of engine.sweep for one rectangle width.
 *
 * The state layout, the kink move (engine.transitions, whose top row writes
 * the next column's keys in both sweeps), the prune bound
 * (pruning.additional_steps_mid, after each row and, at row -1, at column
 * boundaries) and the mirror merge port the Python engine and give the same
 * results; sawenum_targets and sawenum_steps_mid expose the kink move and
 * the bound on one key, so that tests compare them key by key.
 *
 * A generating function keeps each degree's count as one unsigned 64-bit
 * word.  Every count is a sum of nonnegative terms, so a count is exact
 * unless an addition carries, and each addition ORs its carry into a flag.
 * The first sum of a state that passes 2**64 widens every count to an
 * unsigned 128-bit integer and is mended there; the row goes on, and the
 * rest of the sweep keeps 128 bits (``wide_rows`` counts those rows), so no
 * row is swept twice.  The ledger always has 128 bits.  A sweep that
 * carried out of 128 bits fails with error 5 instead of returning a wrapped
 * ledger.
 *
 * The top row writes each target under the next column's key, already shifted
 * (its top kink slot retired and a slot opened below row 0), so no pass over
 * the map shifts keys at a column boundary; the engine's top row does the
 * same.  A state and its mirror image (the reflection y -> W - y, see
 * mirror_key) have the same future completions, so the top row sums both
 * under one key, the smaller of the shifted image and its mirror
 * (canonical_key).  This about halves the states the sweep carries.  With
 * pruning on, completions in columns < W are not credited: the prune drops
 * walks that cannot reach column W, so those columns are incomplete anyway,
 * and leaving them empty keeps the ledger independent of which states were
 * carried.
 *
 * The work per state follows its occupied slots, not the width: the prune
 * bound and the kink move's arc matching step from one nonzero 2-bit slot of
 * the key to the next with __builtin_ctzll, so the kernel needs a GCC- or
 * Clang-compatible compiler.
 *
 * At production widths the state maps outgrow the caches, and a hash probe
 * into the next row's map would wait on a cache miss for every target.  The
 * row loop therefore runs one live source ahead: while the targets of one
 * source are applied, the next source is expanded, its targets hashed once
 * and their index slots prefetched (__builtin_prefetch); just before its own
 * targets are applied, the entries those slots name are prefetched too.
 * Targets are applied in the same order as without this pipeline, so the
 * ledgers, the live-state counts and the block moves do not change.
 *
 * A state's nonzero degrees span only a few consecutive values, so each
 * state stores just its live span [lo, hi] instead of all n_max + 1 degrees,
 * in a block of a per-row bump arena (see the state map below).  A state's
 * first sum is copied into its fresh block; a block that a later sum
 * outgrows is replaced by one twice as wide, so every sweep runs once,
 * whatever the spread of its states' degrees.
 *
 * Error codes: 1 forbidden kink state, 2 occupied vertical edge above the
 * lattice, 3 out of memory, 4 bad arguments, 5 a count overflowed 128 bits.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

#define MAX_SLOTS 30
#define MAX_TARGETS 32
#define MAX_NMAX (1 << 29) /* keeps degrees inside an int, spans in Entry.cap */
#define SLOT_LOW_BITS 0x5555555555555555ULL /* low bit of every 2-bit slot */

/* ------------------------------------------------------------------------
 * State map: insertion-ordered entries behind an open-addressing index.  An
 * entry's counts live in a block of ``cap`` degrees of the map's arena,
 * ``elem`` bytes each (a u64, or a u128 once the sweep widened them),
 * starting at degree ``base``, and are zero outside [lo, hi] (the entry is
 * empty when lo > hi).  The arena is a bump allocator, reset with the map
 * once per row: an entry's first sum is copied into a block just as wide as
 * it needs (at least MIN_SPAN), later sums that fit are added in place, and
 * a sum that would span more than the block holds moves the entry to a
 * fresh block at least twice as wide at the arena's end, abandoning the old
 * one until the row ends.  A map starts small (MAP_START entries), so that
 * narrow widths do not clear a large index on every row, and grows by
 * itself.  Callers hash a key once (hash_key) and pass the hash along, so
 * the index slot can be prefetched long before the probe. */

#define MIN_SPAN 3
#define MAP_START 256 /* entries; the index starts twice as large */

typedef struct {
    u64 key;
    uint32_t block; /* offset of the entry's block in the arena */
    int32_t base, lo, hi;
    int32_t top; /* highest degree that can still complete; < 0: none */
    uint32_t cap : 30;
    uint32_t seen : 2; /* top row: bit 0 its key added to it, bit 1 its mirror */
} Entry;

/* index slots hold an entry number + 1, 0 = empty slot */
typedef struct {
    Entry *e;
    void *arena; /* u64 counts, or u128 when elem is 16 */
    uint32_t *index;
    size_t count, cap, used, arena_cap, index_size, elem;
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

static int map_init(Map *m)
{
    memset(m, 0, sizeof *m);
    m->cap = MAP_START;
    m->arena_cap = 2 * MAP_START;
    m->index_size = 2 * MAP_START;
    m->elem = sizeof(u64);
    m->e = malloc(m->cap * sizeof(Entry));
    m->arena = malloc(m->arena_cap * m->elem);
    m->index = calloc(m->index_size, sizeof(uint32_t));
    return m->e && m->arena && m->index ? 0 : 3;
}

static void map_free(Map *m)
{
    free(m->e);
    free(m->arena);
    free(m->index);
    memset(m, 0, sizeof *m);
}

static void map_clear(Map *m)
{
    m->count = 0;
    m->used = 0;
    memset(m->index, 0, m->index_size * sizeof(uint32_t));
}

/* Address of count ``off`` of the map's arena. */
static inline void *at(const Map *m, size_t off)
{
    return (char *)m->arena + off * m->elem;
}

/* Gives the map's counts 16 bytes each from now on: the ``used`` counts are
 * copied, widened, into a new arena (malloc aligns it for a u128), so every
 * block keeps its offset. */
static int map_widen(Map *m)
{
    u128 *wide = malloc(m->arena_cap * sizeof(u128));
    if (!wide)
        return 3;
    const u64 *v = m->arena;
    for (size_t k = 0; k < m->used; k++)
        wide[k] = v[k];
    free(m->arena);
    m->arena = wide;
    m->elem = sizeof(u128);
    return 0;
}

/* Bytes the map has in use: its entries, the arena counts handed out and
 * its hash index. */
static size_t map_bytes(const Map *m)
{
    return m->count * sizeof(Entry) + m->used * m->elem
           + m->index_size * sizeof(uint32_t);
}

/* *peak = max(*peak, bytes both maps have in use) */
static void note_bytes(const Map *a, const Map *b, u64 *peak)
{
    u64 bytes = map_bytes(a) + map_bytes(b);
    if (bytes > *peak)
        *peak = bytes;
}

static int map_grow_index(Map *m)
{
    size_t size = m->index_size * 2;
    uint32_t *index = calloc(size, sizeof(uint32_t));
    if (!index)
        return 3;
    for (size_t i = 0; i < m->count; i++) {
        size_t h = hash_key(m->e[i].key) & (size - 1);
        while (index[h])
            h = (h + 1) & (size - 1);
        index[h] = (uint32_t)(i + 1);
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

/* Asks for the index slot where the probe for ``hash`` starts to be
 * brought into the cache, ahead of map_find. */
static inline void prefetch_slot(const Map *m, u64 hash)
{
    __builtin_prefetch(&m->index[hash & (m->index_size - 1)]);
}

/* Asks for the entry named by that slot, once the slot itself is cached,
 * to be brought in as well. */
static inline void prefetch_entry(const Map *m, u64 hash)
{
    uint32_t e = m->index[hash & (m->index_size - 1)];
    if (e)
        __builtin_prefetch(&m->e[e - 1]);
}

/* Entry number of ``key`` (whose hash_key is ``hash``), or NO_ENTRY with
 * *slot set to where it would go. */
static size_t map_find(const Map *m, u64 key, u64 hash, size_t *slot)
{
    size_t mask = m->index_size - 1;
    size_t h = hash & mask;
    uint32_t e;
    while ((e = m->index[h]) != 0) {
        if (m->e[e - 1].key == key)
            return e - 1;
        h = (h + 1) & mask;
    }
    *slot = h;
    return NO_ENTRY;
}

/* New empty entry (no block yet) for ``key`` at index slot ``h`` from
 * map_find, with degree cap ``top`` (NO_ENTRY: no memory). */
static size_t map_insert(Map *m, u64 key, size_t h, int top)
{
    if (m->count == m->cap) {
        size_t cap = m->cap + m->cap / 2; /* 1.5x: the maps dominate memory */
        if (grow((void **)&m->e, cap * sizeof(Entry)))
            return NO_ENTRY;
        m->cap = cap;
    }
    if (m->count >= UINT32_MAX - 1)
        return NO_ENTRY;
    size_t i = m->count++;
    m->e[i] = (Entry){.key = key, .lo = 1, .hi = 0, .top = top}; /* empty */
    m->index[h] = (uint32_t)(i + 1);
    if (2 * m->count > m->index_size && map_grow_index(m))
        return NO_ENTRY;
    return i;
}

/* Offset of a fresh block of ``degrees`` counts at the arena's end, not
 * zeroed; growing the arena may move it, and with it every entry's
 * counts. */
static int arena_alloc(Map *m, size_t degrees, uint32_t *block)
{
    if (m->used + degrees > UINT32_MAX)
        return 3;
    if (m->used + degrees > m->arena_cap) {
        size_t cap = m->arena_cap + m->arena_cap / 2;
        if (cap < m->used + degrees)
            cap = m->used + degrees;
        if (grow(&m->arena, cap * m->elem))
            return 3;
        m->arena_cap = cap;
    }
    *block = (uint32_t)m->used;
    m->used += degrees;
    return 0;
}

/* A fresh block for the new, still empty entry j, holding degrees lo..hi
 * (lo <= hi) from now on: as wide as that span and at least MIN_SPAN (but
 * no wider than the n = n_max + 1 degrees any entry can span), with every
 * degree past the span zeroed.  Returns where the caller writes the span's
 * counts, or NULL when out of memory. */
static void *new_block(Map *m, size_t j, int lo, int hi, int n)
{
    int len = hi - lo + 1;
    int cap = MIN_SPAN < n ? MIN_SPAN : n;
    if (cap < len)
        cap = len;
    uint32_t block;
    if (arena_alloc(m, cap, &block))
        return NULL;
    memset(at(m, block + len), 0, (size_t)(cap - len) * m->elem);
    Entry *e = &m->e[j];
    e->block = block;
    e->cap = cap;
    e->base = e->lo = lo;
    e->hi = hi;
    return at(m, block);
}

/* Widen nonempty entry j's degree range to cover lo..hi as well, when that
 * does not fit its block: re-base the block in place when the range spans
 * at most ``cap`` degrees, else move the entry to a fresh block (counted in
 * *regrows) at least twice as wide.  The arena may move, so callers re-read
 * block addresses. */
static int widen(Map *m, size_t j, int lo, int hi, int n, u64 *regrows)
{
    Entry *e = &m->e[j];
    int len = e->hi - e->lo + 1;
    lo = lo < e->lo ? lo : e->lo;
    hi = hi > e->hi ? hi : e->hi;
    size_t from = e->block + (size_t)(e->lo - e->base);
    if (hi - lo + 1 > e->cap) {
        int64_t cap = 2 * (int64_t)e->cap;
        if (cap > n) /* no entry spans more than n_max + 1 degrees */
            cap = n;
        if (cap < hi - lo + 1)
            cap = hi - lo + 1;
        uint32_t block;
        if (arena_alloc(m, cap, &block))
            return 3;
        memcpy(at(m, block + (e->lo - lo)), at(m, from), (size_t)len * m->elem);
        ++*regrows;
        e->block = block;
        e->cap = (uint32_t)cap;
    } else {
        memmove(at(m, e->block + (e->lo - lo)), at(m, from),
                (size_t)len * m->elem);
    }
    /* zero the block around the live degrees' new place */
    int to = e->lo - lo;
    memset(at(m, e->block), 0, (size_t)to * m->elem);
    memset(at(m, e->block + to + len), 0,
           (size_t)(e->cap - to - len) * m->elem);
    e->base = lo;
    e->lo = lo;
    e->hi = hi;
    return 0;
}

/* Shrink entry i's degree range past degrees whose count is zero; returns 0
 * when the entry is empty. */
static int trim(Map *m, size_t i)
{
    Entry *e = &m->e[i];
    if (m->elem == sizeof(u64)) {
        const u64 *v = at(m, e->block);
        while (e->lo <= e->hi && !v[e->lo - e->base])
            e->lo++;
        while (e->hi >= e->lo && !v[e->hi - e->base])
            e->hi--;
    } else {
        const u128 *v = at(m, e->block);
        while (e->lo <= e->hi && !v[e->lo - e->base])
            e->lo++;
        while (e->hi >= e->lo && !v[e->hi - e->base])
            e->hi--;
    }
    return e->lo <= e->hi;
}

/* The new, still empty entry j of ``dst`` = x**k * entry i of ``src``,
 * truncated at dst's degree cap (callers check that something is left):
 * one copy into a fresh block. */
static int first_sum(Map *dst, size_t j, const Map *src, size_t i, int k,
                     int n)
{
    const Entry *s = &src->e[i];
    int lo = s->lo + k, hi = s->hi + k;
    if (hi > dst->e[j].top)
        hi = dst->e[j].top;
    void *dv = new_block(dst, j, lo, hi, n);
    if (!dv)
        return 3;
    memcpy(dv, at(src, s->block + (s->lo - s->base)),
           (size_t)(hi - lo + 1) * dst->elem);
    return 0;
}

/* Entry j of ``dst`` (nonempty) += x**k * entry i of ``src``, truncated at
 * dst's degree cap; in place when the sum fits the entry's block.  When a
 * 64-bit sum carries, both maps widen to 128 bits (the source with the
 * destination, as the maps' counts always share a size) and each degree
 * whose wrapped sum fell below its addend gains the lost 2**64.  A carry out
 * of 128 bits sets *carried. */
static int add_shifted(Map *dst, size_t j, Map *src, size_t i, int k,
                       int n, u64 *regrows, int *carried)
{
    const Entry *s = &src->e[i];
    Entry *d = &dst->e[j];
    int lo = s->lo + k, hi = s->hi + k;
    if (hi > d->top)
        hi = d->top;
    if (lo > hi)
        return 0;
    if (lo < d->base || hi >= d->base + d->cap) {
        if (widen(dst, j, lo, hi, n, regrows))
            return 3;
    } else {
        if (lo < d->lo)
            d->lo = lo;
        if (hi > d->hi)
            d->hi = hi;
    }
    size_t to = d->block + (lo - d->base), from = s->block + (s->lo - s->base);
    int c = 0;
    if (dst->elem == sizeof(u64)) {
        u64 *dv = at(dst, to);
        const u64 *sv = at(src, from);
        for (int t = 0; t <= hi - lo; t++)
            c |= __builtin_add_overflow(dv[t], sv[t], &dv[t]);
        if (!c)
            return 0;
        if (map_widen(dst) || map_widen(src))
            return 3;
        u128 *wd = at(dst, to);
        const u128 *ws = at(src, from);
        for (int t = 0; t <= hi - lo; t++)
            if (wd[t] < ws[t])
                wd[t] += (u128)1 << 64;
        return 0;
    }
    u128 *dv = at(dst, to);
    const u128 *sv = at(src, from);
    for (int t = 0; t <= hi - lo; t++)
        c |= __builtin_add_overflow(dv[t], sv[t], &dv[t]);
    *carried |= c;
    return 0;
}

/* Ledger column ``dst`` (counts of degrees 0..n_max) += entry i of ``src``;
 * a carry out of 128 bits sets *carried. */
static void add_full(u128 *dst, const Map *src, size_t i, int *carried)
{
    const Entry *e = &src->e[i];
    size_t from = e->block + (e->lo - e->base);
    int c = 0;
    if (src->elem == sizeof(u64)) {
        const u64 *v = at(src, from);
        for (int d = e->lo; d <= e->hi; d++, v++)
            c |= __builtin_add_overflow(dst[d], *v, &dst[d]);
    } else {
        const u128 *v = at(src, from);
        for (int d = e->lo; d <= e->hi; d++, v++)
            c |= __builtin_add_overflow(dst[d], *v, &dst[d]);
    }
    *carried |= c;
}

/* ------------------------------------------------------------------------
 * Signature algebra (signatures.accessible_targets), on doubled coordinates
 * so that the half-integer insertion gap stays an integer. */

typedef struct {
    int lo, hi;
} Arc;

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
    u64 key, hash; /* hash: hash_key(key), set by the sweep */
    int k;
    int mirrored; /* top row: key was turned into its mirror (canonical_key) */
} Target;

typedef struct {
    Target t[MAX_TARGETS];
    int n, completes; /* completes: what transitions returned */
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
 * forbidden kink, else 1 if the source completes a spanning walk, else 0.
 * Below the kink, targets come from free ends bottom up, then from arcs in
 * the order they close.  That order decides which sum reaches a target
 * first and so sizes its block: it is part of what ``regrows`` counts. */
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
            /* one bottom-up pass over the occupied slots of ``rest`` (both
             * kink slots are empty) matches the arcs, in the order they
             * close, and collects the free ends */
            Arc arcs[MAX_SLOTS];
            int stack[MAX_SLOTS], ends[MAX_SLOTS], sp = 0, narcs = 0, nends = 0;
            for (u64 occ = (rest | rest >> 1) & SLOT_LOW_BITS; occ;
                 occ &= occ - 1) {
                int pos = __builtin_ctzll(occ) >> 1;
                int e = (rest >> (2 * pos)) & 3;
                if (e == 1) {
                    stack[sp++] = pos;
                } else if (e == 2) {
                    arcs[narcs].lo = stack[--sp];
                    arcs[narcs].hi = pos;
                    narcs++;
                } else {
                    ends[nends++] = pos;
                }
            }
            int gap2 = 2 * r + 1;
            for (int n = 0; n < nends; n++) {
                int f = ends[n];
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
static int imin(int a, int b) { return a < b ? a : b; }

#define UNREACHABLE (1 << 30) /* pruning.UNREACHABLE: no completion possible */

/* pruning.additional_steps_mid, right after the kink move at row r; at
 * r = -1 the bound at a column boundary, on the start-of-column key.  The
 * slots are walked bottom up, visiting only the occupied ones: ``occ`` holds
 * the low bit of every nonzero 2-bit slot of the (flag-free) key.  An arc's
 * reach is one more than the largest reach among the segments it directly
 * encloses (a free end counts 1 in the new column, 0 otherwise); each
 * untouched border is charged to the cheapest top-level segment that can
 * reach it. */
static int steps_mid(u64 key, int r, int width, int bottom, int top, int column)
{
    int cost = 0, depth = 0, has_free = 0, top_reach = 0, low = 0;
    int to_bottom = UNREACHABLE, to_top = UNREACHABLE;
    int lnew[MAX_SLOTS + 1], rstack[MAX_SLOTS + 1];
    rstack[0] = 0;
    for (u64 occ = (key | key >> 1) & SLOT_LOW_BITS; occ; occ &= occ - 1) {
        int slot = __builtin_ctzll(occ) >> 1;
        int e = (key >> (2 * slot)) & 3;
        int pos = slot <= r + 1 ? slot : slot - 1;
        if (e == 1) {
            if (!depth)
                low = pos;
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
            } else {
                if (reach > top_reach)
                    top_reach = reach;
                /* a kink 1 under a left-edge 2 is joined at the next vertex */
                if (slot != r + 2 || ((key >> (2 * (r + 1))) & 3) != 1) {
                    to_bottom = imin(to_bottom, 2 * low);
                    to_top = imin(to_top, 2 * (width - pos));
                }
            }
        } else {
            has_free = 1;
            if (depth) {
                /* the enclosing arc passes beyond the end-point's column */
                int child = slot <= r ? 2 : 1;
                if (child > rstack[depth])
                    rstack[depth] = child;
            } else {
                to_bottom = imin(to_bottom, pos);
                to_top = imin(to_top, width - pos);
            }
        }
    }
    int new_any = (key & ((1ULL << (2 * (r + 1))) - 1)) ? 1 : 0;
    int reached = column + new_any;
    int credit = imax(0, top_reach - new_any);
    if (key) {
        if (to_bottom == UNREACHABLE && !(bottom && top))
            return UNREACHABLE; /* no segment can reach an untouched border */
        int trip = has_free ? 1 : 2;
        if (!bottom)
            cost += to_bottom;
        if (!top)
            cost += to_top;
        cost += trip * imax(0, width - reached - credit);
    } else {
        if (!(bottom && top))
            cost += width;
        cost += imax(0, width - reached - credit);
    }
    return cost;
}

/* ------------------------------------------------------------------------
 * The sweep. */

typedef struct {
    int width, fb, prune, n_max;
    u64 edges_mask, flags_mask;
} Geometry;

static u64 shifted_key(const Geometry *g, u64 key)
{
    return (((key & g->edges_mask) << 2) & g->edges_mask) | (key & g->flags_mask);
}

/* The mirror image y -> W - y of a start-of-column key (slot 0 empty):
 * slot j <-> slot W + 2 - j for j >= 1, arc labels 1 <-> 2 with free ends
 * kept, and the bottom and top flags swapped (signatures.mirror). */
static u64 mirror_key(const Geometry *g, u64 key)
{
    u64 x = (key & g->edges_mask) >> 2; /* slots 1..W+1 as 0..W */
    /* reverse all 32 2-bit slots of the word, then bring 0..W back down */
    x = (x >> 2 & 0x3333333333333333ULL) | (x & 0x3333333333333333ULL) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
    x = __builtin_bswap64(x) >> 2 * (31 - g->width);
    x = (x >> 1 & SLOT_LOW_BITS) | (x & SLOT_LOW_BITS) << 1; /* 1 <-> 2 */
    u64 bottom = 1ULL << g->fb;
    return x << 2 | (key >> 1 & bottom) | (key & bottom) << 1;
}

/* The key a top-row target ``key`` is summed under: the next column's key,
 * the smaller of its shifted image and that image's mirror, so that mirror
 * partners meet in one entry.  *mirrored tells whether the mirror was
 * taken. */
static u64 canonical_key(const Geometry *g, u64 key, int *mirrored)
{
    u64 s = shifted_key(g, key), m = mirror_key(g, s);
    *mirrored = m < s;
    return *mirrored ? m : s;
}

/* Highest degree of ``key`` that can still complete, right after the kink
 * move at row r of column c.  Truncating each addend there equals the
 * engine's prune of the summed state: after the top row, where ``key`` is
 * already the next column's, that is the prune at row -1 of column c + 1. */
static int degree_cap(const Geometry *g, u64 key, int r, int c)
{
    if (!g->prune)
        return g->n_max;
    int bottom = (key >> g->fb) & 1, top = (key >> (g->fb + 1)) & 1;
    int next = r == g->width;
    return g->n_max - steps_mid(key & g->edges_mask, next ? -1 : r, g->width,
                                bottom, top, c + next);
}

/* Fills ``em`` with the targets of ``key`` (see transitions), in the top
 * row under the next column's canonical keys, hashes each target key once
 * and prefetches the index slot its probe in ``nxt`` will start at.
 * Returns 1 on a forbidden kink, 2 on a top-row target whose slot W + 1 is
 * occupied, else 0. */
static int expand(const Geometry *g, u64 key, int r, int first_col,
                  Emitter *em, const Map *nxt)
{
    if ((em->completes = transitions(key, r, g->width, first_col, em)) < 0)
        return 1;
    for (int t = 0; t < em->n; t++) {
        Target *tg = &em->t[t];
        tg->mirrored = 0;
        if (r == g->width) {
            if ((tg->key >> (2 * (g->width + 1))) & 3)
                return 2;
            tg->key = canonical_key(g, tg->key, &tg->mirrored);
        }
        tg->hash = hash_key(tg->key);
        prefetch_slot(nxt, tg->hash);
    }
    return 0;
}

/* Row r of column c: the targets of every live state of ``cur`` summed
 * into ``nxt`` (cleared first), and the completions of the states into
 * ledger column ``comp``.  *live = the live states entering the row;
 * *merged counts the top-row entries that both a key and its distinct
 * mirror added something to below the degree cap. */
static int sweep_row(const Geometry *g, Map *cur, Map *nxt, int r, int c,
                     u128 *comp, size_t *live, u64 *regrows, u64 *merged,
                     int *carried)
{
    int n = g->n_max + 1;
    Emitter ems[2];
    size_t j, h;
    int err;
    map_clear(nxt);
    *live = 0;
    /* Software pipeline, one live source deep: entry i is expanded into
     * ``ahead`` (its targets' index slots prefetched) before the targets of
     * ``src``, the live entry before it, are applied.  Targets are applied
     * in the same order as without it. */
    Emitter *ahead = &ems[0], *due = &ems[1];
    size_t src = NO_ENTRY; /* the entry whose targets are due */
    for (size_t i = 0; i <= cur->count; i++) {
        if (i < cur->count) {
            if (!trim(cur, i))
                continue;
            if ((err = expand(g, cur->e[i].key, r, c == 0, ahead, nxt)))
                return err;
        }
        Emitter *em = due;
        size_t s = src;
        due = ahead;
        ahead = em;
        src = i;
        if (s == NO_ENTRY)
            continue;
        ++*live;
        if (em->completes && (!g->prune || c >= g->width))
            add_full(comp, cur, s, carried);
        /* s's index slots were prefetched one source ago */
        for (int t = 0; t < em->n; t++)
            prefetch_entry(nxt, em->t[t].hash);
        for (int t = 0; t < em->n; t++) {
            const Target *tg = &em->t[t];
            if ((j = map_find(nxt, tg->key, tg->hash, &h)) != NO_ENTRY) {
                if (add_shifted(nxt, j, cur, s, tg->k, n, regrows, carried))
                    return 3;
                Entry *e = &nxt->e[j];
                if (cur->e[s].lo + tg->k <= e->top && e->seen != 3
                    && (e->seen |= 1u << tg->mirrored) == 3)
                    ++*merged;
                continue;
            }
            int top = degree_cap(g, tg->key, r, c);
            if (cur->e[s].lo + tg->k > top)
                continue; /* nothing that could still complete */
            if ((j = map_insert(nxt, tg->key, h, top)) == NO_ENTRY
                || first_sum(nxt, j, cur, s, tg->k, n))
                return 3;
            nxt->e[j].seen = 1u << tg->mirrored;
        }
    }
    return 0;
}

/* The sweep's geometry of a width, with pruning ``prune`` to degree n_max;
 * returns 4 when the width's keys do not fit 62 bits. */
static int geometry(int width, int prune, int n_max, Geometry *g)
{
    int nslots = width + 2, fb = 2 * nslots;
    if (width < 0 || nslots > MAX_SLOTS || 2 * nslots + 2 > 62)
        return 4;
    *g = (Geometry){width, fb, prune, n_max, (1ULL << fb) - 1, 3ULL << fb};
    return 0;
}

/* out: (l_max + 1) * (n_max + 1) counts, column by column, each an unsigned
 * 128-bit integer in the machine's byte order (columns < width stay zero
 * when pruning); written only when the sweep succeeds.  stats[0] = peak
 * live states entering one row, stats[1] = live states summed over all
 * rows, stats[2] = most bytes both state maps had in use at the end of a
 * row (map_bytes), stats[3] = entries moved to a wider block, stats[4] =
 * live states at column boundaries that both a key and its distinct mirror
 * image added something to below the degree cap, stats[5] = rows swept
 * with 128-bit counts. */
int sawenum_sweep(int width, int l_max, int n_max, int prune, void *out,
                  u64 *stats)
{
    Geometry geo;
    if (l_max < 0 || n_max < 0 || n_max > MAX_NMAX
        || geometry(width, prune, n_max, &geo))
        return 4;
    int n = n_max + 1;
    size_t ledger_bytes = (size_t)(l_max + 1) * n * sizeof(u128);
    Map cur, nxt;
    int err = 0, carried = 0;
    size_t j, h, live;
    u64 regrows = 0, merged = 0, wide_rows = 0;
    u128 *ledger = calloc(l_max + 1, (size_t)n * sizeof(u128));

    stats[0] = stats[1] = stats[2] = 0;
    err = map_init(&cur);
    if (map_init(&nxt) || err || !ledger) { /* all, so all can be freed */
        err = 3;
        goto done;
    }
    /* the seed, the empty state of weight 1, unless the boundary prune
     * already rules out every walk; the map is empty, so the key's own
     * index slot is free */
    if (!prune || steps_mid(0, -1, width, 0, 0, 0) <= n_max) {
        u64 *v;
        if ((j = map_insert(&cur, 0, hash_key(0) & (cur.index_size - 1),
                            n_max)) == NO_ENTRY
            || !(v = new_block(&cur, j, 0, 0, n))) {
            err = 3;
            goto done;
        }
        *v = 1;
    }

    for (int c = 0; c <= l_max; c++) {
        u128 *comp = ledger + (size_t)c * n;
        for (int r = 0; r <= width; r++) {
            if ((err = sweep_row(&geo, &cur, &nxt, r, c, comp, &live,
                                 &regrows, &merged, &carried)))
                goto done;
            wide_rows += cur.elem == sizeof(u128);
            stats[1] += live;
            if (live > stats[0])
                stats[0] = live;
            note_bytes(&cur, &nxt, &stats[2]);
            Map tmp = cur;
            cur = nxt;
            nxt = tmp;
        }
        /* no more walk starts after column 0 */
        if (c == 0 && (j = map_find(&cur, 0, hash_key(0), &h)) != NO_ENTRY) {
            cur.e[j].lo = 1;
            cur.e[j].hi = 0;
        }
    }
    if (carried)
        err = 5;
    else
        memcpy(out, ledger, ledger_bytes);
done:
    stats[3] = regrows;
    stats[4] = merged;
    stats[5] = wide_rows;
    map_free(&cur);
    map_free(&nxt);
    free(ledger);
    return err;
}

/* ------------------------------------------------------------------------
 * Test entry points: the sweep's kink move and prune bound on one key. */

/* The targets of ``key`` at row r of a strip of width ``width``, as expand
 * gives them to the sweep (in the top row under the next column's canonical
 * keys): keys[t] and ks[t] for the t-th target, in order (both hold
 * MAX_TARGETS), and *completes.  Returns the number of targets, or -1 on a
 * forbidden kink, -2 on a top-row target whose slot W + 1 is occupied and
 * -4 on bad arguments. */
int sawenum_targets(int width, int r, int first_col, u64 key, u64 *keys,
                    int *ks, int *completes)
{
    Geometry geo;
    if (geometry(width, 0, 0, &geo) || r < 0 || r > width)
        return -4;
    uint32_t slot = 0; /* a one-slot index, for expand's prefetch_slot */
    Map one = {.index = &slot, .index_size = 1};
    Emitter em;
    int err = expand(&geo, key, r, first_col, &em, &one);
    if (err)
        return -err;
    for (int t = 0; t < em.n; t++) {
        keys[t] = em.t[t].key;
        ks[t] = em.t[t].k;
    }
    *completes = em.completes;
    return em.n;
}

/* steps_mid of ``key``'s slots (its border flags masked off, as degree_cap
 * does), or -4 on bad arguments. */
int sawenum_steps_mid(u64 key, int r, int width, int bottom, int top,
                      int column)
{
    Geometry geo;
    if (geometry(width, 0, 0, &geo) || r < -1 || r > width)
        return -4;
    return steps_mid(key & geo.edges_mask, r, width, bottom, top, column);
}
