"""The C kernel of the columnar tier: ``compiled``'s cycle over columns.

:mod:`repro.core.columnar` lays every replica of a point out as flat
int64/uint8/uint32/float64 arrays; this module hands them to a small C
kernel (compiled once per host with the system ``cc``, kept as a shared
object in the user's cache directory and bound through :mod:`ctypes`)
that runs the propose/resolve/commit/update cycle as plain loops over
the live ports and, from resolve on, over only the rows that proposed.
Nothing else steps those columns: the kernel *is* the tier's engine.

It is the integer twin of the compiled object engine, and a replica's
result serializes to the bytes of a solo ``compiled`` run of its seed
(``tests/integration/test_columnar.py`` holds it to that).  The
agreement rests on one shared stream and three structural facts:

* **The miss stream is the object model's.**  Each (replica, pm)
  column owns an MT19937 state seeded by ``init_by_array`` over the
  little-endian 32-bit words of ``abs(seed * 1_000_003 + pm)`` — what
  ``random.Random(n)`` does.  ``seed_streams`` mixes eight columns at a
  time: one column's ``init_by_array`` is a chain of 1,247 dependent
  steps, so it runs blocks of columns whose keys have the same width
  side by side through a transposed scratch block, and each column
  still ends with its own key's words.  ``draw_gap`` / the generate loop
  consume it exactly as ``MissGenerator._advance_schedule`` does: one
  ``random()`` per unblocked cycle until ``< miss_rate``, then
  ``random() < read_fraction``, then the selector's
  ``pool[_randbelow(len(pool))]`` with ``_randbelow``'s
  ``getrandbits(n.bit_length())`` rejection loop (DESIGN.md §9 has the
  table).  A PM's stream depends on nothing but how many draws it has
  made, so drawing a gap's Bernoullis in one run when the previous miss
  is consumed — at most ``LOOKAHEAD_CHUNK`` per visit — reads the same
  words as drawing one per cycle.  Each Bernoulli is decided in
  integers: ``random()`` is ``(a * 2**26 + b) / 2**53`` for the two
  words' top 27 and 26 bits, so ``random() < p`` is ``a * 2**26 + b <
  bernoulli_threshold(p)`` (``ceil(p * 2**53)``, exact in Python).  The
  second word is only tempered when ``a`` ties the threshold's high
  bits, and is consumed either way.
* **Arbitration reads start-of-subcycle state.**  A ring port takes the
  first non-empty source in static priority order (or streams the
  source it is locked to); a free mesh output takes the first
  requesting input at or after its round-robin pointer.  Occupancy,
  claims and pointers do not change inside a propose pass, so each
  router's inputs are classified once into a per-direction request mask
  — PR 18's request word over columns — and the winner is the object
  router's.  Rows are appended in ascending port order.
* **Only live units, PMs and staging columns are visited.**  A unit is
  a ring port or a mesh router; it is live while any buffer it reads (a
  port's sources; a router's four inputs and its PM's two output
  queues) holds a flit, and only a live unit can propose.  On entry to
  ``step_cycles`` the kernel derives, from ``occ[]``, the unit reading
  each buffer, each unit's flit count and a bitmap of the live ones;
  every commit pop, commit fill and staging drain keeps the three in
  step with ``occ[]``, and propose walks the bitmap lowest bit first, so
  rows keep ascending port order (a router's outputs are contiguous,
  routers ascending).  Generate walks a bitmap of the PMs that can act
  — counting down, or parked with room to unpark — in ascending order:
  parking clears a PM's bit and the eject or local completion that
  lowers its outstanding count sets it again.  The drain walks a list
  of the staging columns that can move: a column joins it when it
  gains a packet while empty, and leaves it when it empties or its head
  packet does not fit; then it waits on its output queue, and commit's
  pop of that queue — the only thing that frees room there — lists it
  again.  The same entry derives both from the columns, and the least
  countdown, which lets a cycle with nothing parked and nothing due
  count every column down in one sweep, and the quiet jump skip to the
  next miss without a search.  None of it is state Python keeps, and
  none of it is a C ``static``: the columns are per-engine scratch, so
  threads can be inside the kernel at once (ctypes releases the GIL).
* **Resolve is a worklist over the greatest fixed point** — the twin of
  ``Engine._resolve_compiled``.  A row can only be revoked if its
  bounded destination is already full, so propose seeds a stack with
  exactly those rows; the resolver pops a row, re-tests
  ``occ[d] - draining >= cap[d]``, revokes it, and pushes the one row
  that fills the revoked row's source.  The surviving set is the
  greatest fixed point of "no survivor overflows its destination given
  the drains of the survivors", which is unique, so the visiting order
  cannot change it.  "The one row" is an invariant of both fabrics:
  every buffer has one reader per subcycle (a ring buffer is a source
  of exactly one port; a mesh input's head routes to one direction and
  a mid-packet input is claimed, ``claim[]``, by the output locked to
  it) and every bounded buffer one writer (one upstream port or router
  output).
* **PMs only meet through buffers.**  Commit pops each surviving row's
  source and then fills its destination, in one pass: a pop leaves
  ``head + occ`` as it was, so a flit lands in the slot it would take
  after all pops, even in a full buffer whose slot column it fills
  (``cap == capm``), where it takes the head slot of the flit leaving.
  The update phase then runs eject, memory service, local completion,
  generate and staging drain per PM in the object model's order.  A
  PM's update reads and writes only its own queues, counters and
  stream, so the order PMs are visited in cannot show in any result.

Loading (:func:`load`, once per process, never raises): the shared
object lives at ``$XDG_CACHE_HOME/repro/ckernel-<identity>-<content>.so``
(default ``~/.cache/repro/``).  The identity is a digest of the C
source, the compiler flags and the platform, so an edited kernel or
another flag set gets its own entry and a stale one is never loaded;
the content part is a digest of the file's own bytes, checked before the
file is mapped (a truncated ELF object does not fail to ``dlopen``, it
kills the process).  A process that finds the entry maps it — a fraction
of a millisecond; the first process on a host compiles into a private
temporary file beside it, binds *that*, and publishes it with
``os.replace`` — racing builders each publish a whole file, the same
one.  An entry that fails the check, does not load or lacks the entry
points is unlinked and rebuilt once.  The directory is created 0700 and
is only used if it belongs to the caller and nobody else may write to
it; otherwise, or if it cannot be written, the kernel is built in the
system temp directory for this process alone, as it always was.  Delete
the directory (or just its ``ckernel-*.so`` files) to force a rebuild.

Gating: any failure (no compiler, sandboxed filesystem, unsupported
platform) marks the kernel unavailable, and
:func:`repro.core.columnar.simulate_columnar` then runs each seed under
``compiled``: same bytes, no kernel speed.  Set
``REPRO_COLUMNAR_KERNEL=0`` to force that route, e.g. to price the
kernel against it or reproduce kernel-off CI lanes.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import sys
import threading

__all__ = ["available", "bernoulli_threshold", "load", "PTR", "KS", "PRM"]


class PTR:
    """Slot order of the pointer table handed to the kernel's entry points.

    Must match the ``A_*`` enum in the C source below.  Slots a
    topology kind does not use (ring tables on a mesh run and vice
    versa) are filled with any valid array — the kernel never reads
    them.
    """

    OCC = 0
    HEAD = 1
    SLOTS = 2
    CAP = 3
    IS_SINK = 4
    SINK_PM = 5
    MID = 6
    REM = 7
    CONT_SRC = 8
    CONT_DST = 9
    PSRC3 = 10
    RT_TBL = 11
    FAST = 12
    LVL_OF = 13
    R_OF_PORT = 14
    IN_BUF = 15
    LQ_RESP = 16
    LQ_REQ = 17
    ROUTE = 18
    M_DST = 19
    M_DIR = 20
    M_R5 = 21
    CLAIMED = 22
    RR = 23
    LOCK = 24
    STG_Q = 25
    STG_QCAP = 26
    STG_HEAD = 27
    STG_TAIL = 28
    PKT_NEXT = 29
    OUT = 30
    REM_OPEN = 31
    RX_CNT = 32
    RX_PID = 33
    PM_LOCAL = 34
    R_OF_PM = 35
    PEND = 36
    PEND_RD = 37
    PEND_TGT = 38
    COUNTDOWN = 39
    MORE = 40
    MT = 41
    MT_KEY = 42
    POOL = 43
    POOL_ROW = 44
    PKT_DEST = 45
    PKT_SRC = 46
    PKT_SIZE = 47
    PKT_ISSUE = 48
    PKT_RESP = 49
    PKT_READ = 50
    PKT_RT = 51
    MEM_READY = 52
    MEM_PM = 53
    MEM_PID = 54
    LOC_READY = 55
    LOC_PM = 56
    STALLED = 57
    REM_SUM = 58
    REM_CNT = 59
    REM_MIN = 60
    REM_MAX = 61
    REM_LAST = 62
    LOC_SUM = 63
    LOC_CNT = 64
    LOC_MIN = 65
    LOC_MAX = 66
    LOC_LAST = 67
    REMOTE_COMPLETED = 68
    LOCAL_COMPLETED = 69
    REMOTE_ISSUED = 70
    LOCAL_ISSUED = 71
    FLITS_LEVEL = 72
    FLITS_MOVED = 73
    ROW_PORT = 74
    ROW_SRC = 75
    ROW_DST = 76
    ROW_PID = 77
    ROW_IN = 78
    ROW_LIVE = 79
    DRAINER = 80
    FILLER = 81
    WORK = 82
    COMP = 83
    CYC_PROP = 84
    CYC_COMM = 85
    LIVE_OF = 86
    LIVE_CNT = 87
    LIVE_BITS = 88
    PORT_LO = 89
    STG_DIRTY = 90
    STG_WAIT = 91
    PM_BITS = 92
    KSTATE = 93
    COUNT = 94


class KS:
    """Scalar kernel state (int64) shared across ``step_cycles`` calls."""

    CYCLE = 0
    NPKT = 1
    PKT_CAP = 2
    NET_FLITS = 3
    PEND_TOTAL = 4
    MEM_HEAD = 5
    MEM_CNT = 6
    LOC_HEAD = 7
    LOC_CNT = 8
    ARG = 9
    COUNT = 16


class PRM:
    """Static parameter vector (int64) — matches the ``P_*`` C enum."""

    KIND = 0  # 0 = ring, 1 = mesh
    R = 1
    U = 2
    P = 3
    L = 4
    NB = 5
    NU = 6
    NPM = 7
    V = 8
    SENT = 9
    SMASK = 10
    BLOG = 11
    SUBC = 12
    MEM_LAT = 13
    T_LIMIT = 14
    HDR = 15
    CL = 16
    BYPASS = 17
    THRESHOLD = 18
    MQ_MASK = 19
    CHUNK = 20  # Bernoulli draws per visit (processor.LOOKAHEAD_CHUNK)
    KEY_WORDS = 21  # row width of the seeding key table
    MISS_THR = 22  # bernoulli_threshold(miss_rate)
    READ_THR = 23  # bernoulli_threshold(read_fraction)
    COUNT = 24


def bernoulli_threshold(p: float) -> int:
    """The integer the kernel tests ``random() < p`` against.

    ``random()`` is ``n / 2**53`` for a 53-bit integer ``n``, and for a
    real ``x`` an integer is below ``x`` iff it is below ``ceil(x)``, so
    ``n < bernoulli_threshold(p)`` iff ``n * 2**-53 < p``.  ``ldexp``
    only moves the exponent, so ``p * 2**53`` and its ceiling are exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"a probability must be in [0, 1], got {p}")
    return math.ceil(math.ldexp(p, 53))


#: step_cycles return codes.
STATUS_DONE = 0
STATUS_PKT_GROW = 2
STATUS_DEADLOCK = 3

_SOURCE = r"""
#include <stdint.h>

typedef int64_t  i64;
typedef uint32_t u32;
typedef uint64_t u64;
typedef uint8_t  u8;
typedef double   f64;

enum { P_KIND, P_R, P_U, P_P, P_L, P_NB, P_NU, P_NPM, P_V, P_SENT,
       P_SMASK, P_BLOG, P_SUBC, P_MEMLAT, P_TLIM, P_HDR, P_CL,
       P_BYPASS, P_THRESH, P_MQMASK, P_CHUNK, P_KEYW, P_MISSTHR,
       P_READTHR };

enum { K_CYCLE, K_NPKT, K_PKTCAP, K_NETF, K_PENDTOT,
       K_MEMH, K_MEMC, K_LOCH, K_LOCC, K_ARG };

enum {
 A_OCC, A_HEAD, A_SLOTS, A_CAP, A_ISSINK, A_SINKPM,
 A_MID, A_REM, A_CSRC, A_CDST,
 A_PSRC3, A_RTTBL, A_FAST, A_LVLOF, A_RPORT,
 A_INBUF, A_LQRESP, A_LQREQ, A_ROUTE, A_MDST, A_MDIR, A_MR5,
 A_CLAIM, A_RR, A_LOCK,
 A_STGQ, A_STGQCAP, A_STGHEAD, A_STGTAIL, A_PNEXT,
 A_OUT, A_REMOPEN, A_RXCNT, A_RXPID, A_PMLOCAL, A_ROFPM,
 A_PEND, A_PENDRD, A_PENDTGT, A_CD,
 A_MORE, A_MT, A_MTKEY, A_POOL, A_POOLROW,
 A_PDEST, A_PSRC, A_PSIZE, A_PISSUE, A_PRESP, A_PREAD, A_PRT,
 A_MEMREADY, A_MEMPM, A_MEMPID, A_LOCREADY, A_LOCPM,
 A_STALLED,
 A_RSUM, A_RCNT, A_RMIN, A_RMAX, A_RLAST,
 A_LSUM, A_LCNT, A_LMIN, A_LMAX, A_LLAST,
 A_RCOMP, A_LCOMP, A_RISS, A_LISS,
 A_FLVL, A_FMOV,
 A_ROWPORT, A_ROWSRC, A_ROWDST, A_ROWPID, A_ROWIN, A_ROWLIVE,
 A_DRAINER, A_FILLER, A_WORK,
 A_COMP, A_CYCPROP, A_CYCCOMM,
 A_LIVEOF, A_LIVECNT, A_LIVEBITS, A_PORTLO, A_STGDIRTY, A_STGWAIT,
 A_PMBITS, A_KSTATE };

/* ---- the miss stream: MT19937 exactly as random.Random runs it ----
   One state per (replica, pm) column: 624 words and the read index.
   Everything below is CPython's _randommodule.c in unsigned 32-bit
   arithmetic, so a column seeded with n yields random.Random(n)'s
   words, and the three draws consume them as MissGenerator does. */
#define MT_N 624
#define MT_M 397
#define MT_STATE (MT_N + 1)

/* random.seed(n) is init_genrand(19650218) -- the same 624 words for
   every key -- then init_by_array's two mixing passes over abs(n)'s
   klen little-endian words.  Each step of a pass reads the word the
   step before it wrote, so one column is one long dependency chain;
   columns are independent, so seed_streams mixes SEED_BLOCK columns
   whose keys have one width side by side, through a transposed block
   (word i of lane c at blk[i][c]).  Every lane takes the one-column
   loop's steps, so each ends with the words random.Random holds for
   its key. */
#define SEED_BLOCK 8

static void mt_mix_block(u32 blk[MT_N][SEED_BLOCK],
                         const u32 *const key[SEED_BLOCK], u32 klen)
{
    u32 i = 1, j = 0, k, c;
    for (k = MT_N > klen ? MT_N : klen; k; k--) {
        for (c = 0; c < SEED_BLOCK; c++) {
            u32 p = blk[i - 1][c];
            blk[i][c] = (blk[i][c] ^ ((p ^ (p >> 30)) * 1664525U)) + key[c][j] + j;
        }
        if (++i >= MT_N) {
            for (c = 0; c < SEED_BLOCK; c++) blk[0][c] = blk[MT_N - 1][c];
            i = 1;
        }
        if (++j >= klen) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        for (c = 0; c < SEED_BLOCK; c++) {
            u32 p = blk[i - 1][c];
            blk[i][c] = (blk[i][c] ^ ((p ^ (p >> 30)) * 1566083941U)) - i;
        }
        if (++i >= MT_N) {
            for (c = 0; c < SEED_BLOCK; c++) blk[0][c] = blk[MT_N - 1][c];
            i = 1;
        }
    }
}

#define MT_TWIST(a, b, c) do {                                       \
        u32 y = (mt[a] & 0x80000000U) | (mt[b] & 0x7fffffffU);       \
        mt[a] = mt[c] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);    \
    } while (0)

/* The next 624 words; the read index restarts at 0. */
static void mt_twist(u32 *mt)
{
    u32 k;
    for (k = 0; k < MT_N - MT_M; k++) MT_TWIST(k, k + 1, k + MT_M);
    for (; k < MT_N - 1; k++) MT_TWIST(k, k + 1, k - (MT_N - MT_M));
    MT_TWIST(MT_N - 1, 0, MT_M - 1);
    mt[MT_N] = 0;
}

static u32 mt_temper(u32 y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

static u32 mt_u32(u32 *mt)
{
    if (mt[MT_N] >= MT_N) mt_twist(mt);
    return mt_temper(mt[mt[MT_N]++]);
}

/* random.random() < p, with thr = ceil(p * 2^53) (bernoulli_threshold):
   random() is (a * 2^26 + b) / 2^53 with a = w0 >> 5 and b = w1 >> 6,
   so the test is the integer a * 2^26 + b < thr. */
static int mt_bernoulli(u32 *mt, i64 thr)
{
    i64 a = mt_u32(mt) >> 5;
    return (a << 26 | mt_u32(mt) >> 6) < thr;
}

/* random.Random._randbelow(n): getrandbits(n.bit_length()) until the
   draw lands below n.  bits is in [1, 32] (the pool table rejects
   longer pools), so the shift stays inside the word. */
static i64 mt_below(u32 *mt, i64 n, i64 bits)
{
    i64 r;
    do r = (i64)(mt_u32(mt) >> (32 - bits)); while (r >= n);
    return r;
}

/* The cycles to the column's next miss: one Bernoulli draw per cycle,
   as MissGenerator._advance_schedule makes them, up to the first
   success (gap = failures + 1).  A run of `chunk` failures returns
   with *more set: no miss when that countdown expires, keep drawing —
   so a vanishing miss rate cannot hold one cycle for ever.  The pairs
   are read straight out of the block (only one that straddles a twist
   goes through mt_bernoulli), and since a below thr's high 27 bits
   wins and a above loses, b's word is only tempered on a tie. */
static i64 draw_gap(u32 *mt, i64 thr, i64 chunk, u8 *more)
{
    const u32 hi = (u32)(thr >> 26), lo = (u32)(thr & 0x3ffffff);
    u32 i = mt[MT_N];
    for (i64 gap = 1; gap <= chunk; gap++) {
        if (i == MT_N) { mt_twist(mt); i = 0; }
        if (i == MT_N - 1) {
            mt[MT_N] = i;
            if (mt_bernoulli(mt, thr)) { *more = 0; return gap; }
            i = mt[MT_N];
            continue;
        }
        u32 a = mt_temper(mt[i]) >> 5;
        i += 2;
        if (a < hi || (a == hi && (mt_temper(mt[i - 1]) >> 6) < lo)) {
            mt[MT_N] = i;
            *more = 0;
            return gap;
        }
    }
    mt[MT_N] = i;
    *more = 1;
    return chunk;
}

/* The words of a key-table row random.seed uses: up to the last
   non-zero one, or one zero word. */
static u32 key_len(const u32 *row, u32 width)
{
    while (width > 1 && row[width - 1] == 0) width--;
    return width;
}

/* Seed every column from its row of the key table (zero-padded to the
   widest key) and draw its first gap.  A block is a run of up to
   SEED_BLOCK consecutive columns whose keys have one width; a lane no
   column fills re-mixes the block's first key and is never copied out. */
void seed_streams(void **A, const i64 *pr)
{
    i64 *cd     = (i64 *)A[A_CD];
    u8  *more   = (u8  *)A[A_MORE];
    u32 *mtv    = (u32 *)A[A_MT];
    u32 *keys   = (u32 *)A[A_MTKEY];
    const i64 npm = pr[P_NPM];
    const u32 keyw = (u32)pr[P_KEYW];
    u32 genrand[MT_N];
    u32 blk[MT_N][SEED_BLOCK];
    genrand[0] = 19650218U;
    for (u32 i = 1; i < MT_N; i++)
        genrand[i] = 1812433253U * (genrand[i - 1] ^ (genrand[i - 1] >> 30)) + i;
    for (i64 f0 = 0; f0 < npm;) {
        const u32 *key[SEED_BLOCK];
        const u32 klen = key_len(keys + f0 * keyw, keyw);
        u32 n = 1;
        while (n < SEED_BLOCK && f0 + n < npm &&
               key_len(keys + (f0 + n) * keyw, keyw) == klen)
            n++;
        for (u32 c = 0; c < SEED_BLOCK; c++)
            key[c] = keys + (f0 + (c < n ? c : 0)) * keyw;
        for (u32 i = 0; i < MT_N; i++)
            for (u32 c = 0; c < SEED_BLOCK; c++) blk[i][c] = genrand[i];
        mt_mix_block(blk, key, klen);
        for (u32 c = 0; c < n; c++) {
            const i64 f = f0 + c;
            u32 *mt = mtv + f * MT_STATE;
            mt[0] = 0x80000000U;
            for (u32 i = 1; i < MT_N; i++) mt[i] = blk[i][c];
            mt[MT_N] = MT_N;
            cd[f] = draw_gap(mt, pr[P_MISSTHR], pr[P_CHUNK], more + f);
        }
        f0 += n;
    }
}

/* ---- column build: one replica's tables tiled across the batch ----
   dst[r*n + i] = src[i] + r*stride: a column of per-replica ids shifted
   into replica r's id range (stride 0 is a plain tile, a zero column
   with stride 1 numbers the replicas).  A negative src[i] means "no
   such buffer" and becomes `none`, unshifted. */
void tile_offset(i64 *dst, const i64 *src, i64 n, i64 R, i64 stride,
                 i64 none)
{
    for (i64 r = 0; r < R; r++)
        for (i64 i = 0; i < n; i++)
            *dst++ = src[i] < 0 ? none : src[i] + r * stride;
}

/* The ring ports' flat routing table: row (replica, port), column
   2*dest + is_resp -> the buffer a flit of that packet moves into.
   port[] is six words per port: the pm range [lo, hi) behind the
   downstream port, then the buffer taken inside that range (request,
   response) and outside it (request, response).  B is the buffer count
   of one replica. */
void ring_routes(i64 *tbl, const i64 *port, i64 U, i64 Pn, i64 R, i64 B)
{
    for (i64 r = 0; r < R; r++)
        for (i64 u = 0; u < U; u++) {
            const i64 *p = port + 6 * u;
            for (i64 d = 0; d < Pn; d++) {
                const i64 *to = p[0] <= d && d < p[1] ? p + 2 : p + 4;
                *tbl++ = to[0] + r * B;
                *tbl++ = to[1] + r * B;
            }
        }
}

/* Index of the lowest set bit of a non-zero 5-bit mask. */
static const u8 LOWBIT[32] = {0, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0,
                              4, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0};

/* The packet whose flit heads buffer b. */
#define HEADPKT(b) slots[((b) << blog) + headv[b]]

/* Append one proposal row: port u moves packet p's flit from buffer s
   to buffer d.  Rows whose bounded destination is already full seed
   the resolver's worklist; no other row can ever be revoked. */
#define PROPOSE(u, s, d, p) do {                        \
        rowport[nrow] = (u);                            \
        rowsrc[nrow] = (s);                             \
        rowdst[nrow] = (d);                             \
        rowpid[nrow] = (p);                             \
        rowlive[nrow] = 1;                              \
        drainer[s] = base + nrow;                       \
        filler[d] = base + nrow;                        \
        prop[rport[u]]++;                               \
        if (occ[d] >= capv[d]) work[nwork++] = nrow;    \
        nrow++;                                         \
    } while (0)

/* The unit reading buffer b gains n flits / loses one.  Every buffer
   a flit can enter or leave, sinks aside, has a reader. */
#define LIVE_ADD(b, n) do {                                  \
        i64 w_ = liveof[b];                                  \
        livecnt[w_] += (n);                                  \
        livebit[w_ >> 6] |= 1ULL << (w_ & 63);               \
    } while (0)
#define LIVE_POP(b) do {                                             \
        i64 w_ = liveof[b];                                          \
        livebit[w_ >> 6] &= ~((u64)(--livecnt[w_] == 0) << (w_ & 63)); \
    } while (0)

/* Append packet p to staging column col's FIFO (linked through the
   packet table's next column; 0 ends it).  A column that was empty
   joins the drain list. */
#define STG_PUSH(col, p) do {                                       \
        pnext[p] = 0;                                               \
        if (stghead[col]) pnext[stgtail[col]] = (p);                \
        else { stghead[col] = (p); dirty[ndirty++] = (col); }      \
        stgtail[col] = (p);                                         \
    } while (0)

/* PM column f has a transaction fewer outstanding: if it is parked it
   may unpark, so generate visits it again. */
#define PM_WAKE(f) (pmbit[(f) >> 6] |= 1ULL << ((f) & 63))

long step_cycles(void **A, const i64 *pr, i64 max_cycles)
{
    /* ---- unpack ---- */
    i64 *occ    = (i64 *)A[A_OCC];
    i64 *headv  = (i64 *)A[A_HEAD];
    i64 *slots  = (i64 *)A[A_SLOTS];
    i64 *capv   = (i64 *)A[A_CAP];
    u8  *issink = (u8  *)A[A_ISSINK];
    i64 *sinkpm = (i64 *)A[A_SINKPM];
    u8  *midv   = (u8  *)A[A_MID];
    i64 *remv   = (i64 *)A[A_REM];
    i64 *csrc   = (i64 *)A[A_CSRC];
    i64 *cdst   = (i64 *)A[A_CDST];
    i64 *psrc3  = (i64 *)A[A_PSRC3];
    i64 *rttbl  = (i64 *)A[A_RTTBL];
    u8  *fastp  = (u8  *)A[A_FAST];
    i64 *lvlof  = (i64 *)A[A_LVLOF];
    i64 *rport  = (i64 *)A[A_RPORT];
    i64 *inbuf  = (i64 *)A[A_INBUF];
    i64 *lqresp = (i64 *)A[A_LQRESP];
    i64 *lqreq  = (i64 *)A[A_LQREQ];
    i64 *route  = (i64 *)A[A_ROUTE];
    i64 *mdst   = (i64 *)A[A_MDST];
    i64 *mdir   = (i64 *)A[A_MDIR];
    i64 *mr5    = (i64 *)A[A_MR5];
    u8  *claim  = (u8  *)A[A_CLAIM];
    i64 *rrv    = (i64 *)A[A_RR];
    i64 *lockv  = (i64 *)A[A_LOCK];
    i64 *stgq   = (i64 *)A[A_STGQ];
    i64 *stgqcap= (i64 *)A[A_STGQCAP];
    i64 *stghead= (i64 *)A[A_STGHEAD];
    i64 *stgtail= (i64 *)A[A_STGTAIL];
    i64 *pnext  = (i64 *)A[A_PNEXT];
    i64 *outv   = (i64 *)A[A_OUT];
    i64 *remopen= (i64 *)A[A_REMOPEN];
    i64 *rxcnt  = (i64 *)A[A_RXCNT];
    i64 *rxpid  = (i64 *)A[A_RXPID];
    i64 *pmloc  = (i64 *)A[A_PMLOCAL];
    i64 *rofpm  = (i64 *)A[A_ROFPM];
    u8  *pend   = (u8  *)A[A_PEND];
    u8  *pendrd = (u8  *)A[A_PENDRD];
    i64 *pendtg = (i64 *)A[A_PENDTGT];
    i64 *cd     = (i64 *)A[A_CD];
    u8  *more   = (u8  *)A[A_MORE];
    u32 *mtv    = (u32 *)A[A_MT];
    i64 *pool   = (i64 *)A[A_POOL];
    i64 *poolrow= (i64 *)A[A_POOLROW];
    i64 *pdest  = (i64 *)A[A_PDEST];
    i64 *psrcp  = (i64 *)A[A_PSRC];
    i64 *psize  = (i64 *)A[A_PSIZE];
    i64 *pissue = (i64 *)A[A_PISSUE];
    u8  *presp  = (u8  *)A[A_PRESP];
    u8  *pread  = (u8  *)A[A_PREAD];
    i64 *prt    = (i64 *)A[A_PRT];
    i64 *memrdy = (i64 *)A[A_MEMREADY];
    i64 *mempm  = (i64 *)A[A_MEMPM];
    i64 *mempid = (i64 *)A[A_MEMPID];
    i64 *locrdy = (i64 *)A[A_LOCREADY];
    i64 *locpm  = (i64 *)A[A_LOCPM];
    i64 *stall  = (i64 *)A[A_STALLED];
    f64 *rsum   = (f64 *)A[A_RSUM];
    i64 *rcnt   = (i64 *)A[A_RCNT];
    f64 *rmin   = (f64 *)A[A_RMIN];
    f64 *rmax   = (f64 *)A[A_RMAX];
    f64 *rlast  = (f64 *)A[A_RLAST];
    f64 *lsum   = (f64 *)A[A_LSUM];
    i64 *lcnt   = (i64 *)A[A_LCNT];
    f64 *lmin   = (f64 *)A[A_LMIN];
    f64 *lmax   = (f64 *)A[A_LMAX];
    f64 *llast  = (f64 *)A[A_LLAST];
    i64 *rcomp  = (i64 *)A[A_RCOMP];
    i64 *lcomp  = (i64 *)A[A_LCOMP];
    i64 *riss   = (i64 *)A[A_RISS];
    i64 *liss   = (i64 *)A[A_LISS];
    i64 *flvl   = (i64 *)A[A_FLVL];
    i64 *fmov   = (i64 *)A[A_FMOV];
    i64 *rowport= (i64 *)A[A_ROWPORT];
    i64 *rowsrc = (i64 *)A[A_ROWSRC];
    i64 *rowdst = (i64 *)A[A_ROWDST];
    i64 *rowpid = (i64 *)A[A_ROWPID];
    i64 *rowin  = (i64 *)A[A_ROWIN];
    u8  *rowlive= (u8  *)A[A_ROWLIVE];
    i64 *drainer= (i64 *)A[A_DRAINER];
    i64 *filler = (i64 *)A[A_FILLER];
    i64 *work   = (i64 *)A[A_WORK];
    i64 *comp   = (i64 *)A[A_COMP];
    i64 *prop   = (i64 *)A[A_CYCPROP];
    i64 *comm   = (i64 *)A[A_CYCCOMM];
    i64 *liveof = (i64 *)A[A_LIVEOF];
    i64 *livecnt= (i64 *)A[A_LIVECNT];
    u64 *livebit= (u64 *)A[A_LIVEBITS];
    i64 *portlo = (i64 *)A[A_PORTLO];
    i64 *dirty  = (i64 *)A[A_STGDIRTY];
    i64 *stgwait= (i64 *)A[A_STGWAIT];
    u64 *pmbit  = (u64 *)A[A_PMBITS];
    i64 *ks     = (i64 *)A[A_KSTATE];

    const i64 kind   = pr[P_KIND];
    const i64 R      = pr[P_R];
    const i64 NB     = pr[P_NB];
    const i64 NU     = pr[P_NU];
    const i64 Pn     = pr[P_P];
    const i64 NPM    = pr[P_NPM];
    const i64 V      = pr[P_V];
    const i64 smask  = pr[P_SMASK];
    const i64 blog   = pr[P_BLOG];
    const i64 subc   = pr[P_SUBC];
    const i64 memlat = pr[P_MEMLAT];
    const i64 tlim   = pr[P_TLIM];
    const i64 hdrsz  = pr[P_HDR];
    const i64 clsz   = pr[P_CL];
    const i64 bypass = pr[P_BYPASS];
    const i64 thresh = pr[P_THRESH];
    const i64 mqmask = pr[P_MQMASK];
    const i64 chunk  = pr[P_CHUNK];
    const i64 missthr= pr[P_MISSTHR];
    const i64 readthr= pr[P_READTHR];

    i64 cycle = ks[K_CYCLE];
    const i64 end = cycle + max_cycles;

    /* ---- the live sets, derived from the columns on every entry ----
       A unit is a ring port or a mesh router.  liveof[b] is the one
       unit that reads buffer b (-1: a sink or the sentinel), livecnt[w]
       the flits in unit w's buffers, and bit w of livebit is set iff
       that count is non-zero; commit pops and fills and the staging
       drain keep all three in step with occ[], so propose visits only
       units with a flit to move.  dirty[0, ndirty) lists the staging
       columns the drain must try: here every non-empty one; later a
       column that gains a packet while empty, or whose output queue q
       pops while it waits in stgwait[q] (a column whose head packet
       did not fit leaves the list, and only a pop frees room in its
       queue).  Bit f of pmbit is set while PM column f counts down, or
       is parked with room to unpark: parking clears it, and the eject
       or local completion that lowers the column's outstanding count
       sets it.  mincd is the least countdown whenever no column is
       parked. */
    const i64 nunit = kind == 0 ? NU : R * V;
    const i64 nword = (nunit + 63) >> 6;
    const i64 npmword = (NPM + 63) >> 6;
    for (i64 b = 0; b <= NB; b++) liveof[b] = stgwait[b] = -1;
    if (kind == 0) {
        for (i64 k = 0; k < 3 * NU; k++)
            if (psrc3[k] < NB) liveof[psrc3[k]] = k % NU;
    } else {
        for (i64 w = 0; w < nunit; w++) {
            for (i64 j = 0; j < 4; j++)
                if (inbuf[5 * w + j] < NB) liveof[inbuf[5 * w + j]] = w;
            liveof[lqresp[w]] = liveof[lqreq[w]] = w;
        }
        /* a router's outputs are the contiguous ports
           [portlo[w], portlo[w + 1]), routers in ascending order */
        portlo[0] = 0;
        for (i64 u = 0; u < NU; u++) portlo[mr5[u] / 5 + 1] = u + 1;
    }
    for (i64 w = 0; w < nunit; w++) livecnt[w] = 0;
    for (i64 k = 0; k < nword; k++) livebit[k] = 0;
    for (i64 b = 0; b < NB; b++)
        if (occ[b] > 0) LIVE_ADD(b, occ[b]);
    i64 ndirty = 0;
    for (i64 col = 0; col < 2 * NPM; col++)
        if (stghead[col]) dirty[ndirty++] = col;
    for (i64 k = 0; k < npmword; k++) pmbit[k] = 0;
    for (i64 f = 0; f < NPM; f++)
        if (!pend[f] || outv[f] < tlim) PM_WAKE(f);
    i64 mincd = cd[0];
    for (i64 f = 1; f < NPM; f++) if (cd[f] < mincd) mincd = cd[f];

    while (cycle < end) {
        if (ks[K_NPKT] + 2 * NPM + 4 > ks[K_PKTCAP]) {
            ks[K_CYCLE] = cycle;
            return 2;
        }
        /* quiet jump: nothing in flight, nothing staged or parked (a
           staged packet that does not fit waits on a queue holding
           flits) */
        if (ks[K_NETF] == 0 && ks[K_MEMC] == 0 && ks[K_LOCC] == 0 &&
            ndirty == 0 && ks[K_PENDTOT] == 0) {
            i64 dt = mincd;
            if (dt > end - cycle) dt = end - cycle;
            if (dt > 1) {
                for (i64 f = 0; f < NPM; f++) cd[f] -= dt - 1;
                mincd -= dt - 1;
                cycle += dt - 1;
            }
        }
        i64 ncomp = 0;
        for (i64 r = 0; r < R; r++) { prop[r] = 0; comm[r] = 0; }

        for (i64 sub = 0; sub < subc; sub++) {
            /* drainer[]/filler[] hold base + row; the base grows by NU
               every subcycle, so entries left by earlier subcycles read
               as "no row" without ever being cleared */
            const i64 base = (cycle * subc + sub) * NU + 1;
            i64 nrow = 0, nwork = 0;

            /* ---- propose: append rows in ascending port order ---- */
            if (kind == 0) {
                for (i64 wi = 0; wi < nword; wi++)
                for (u64 bits = livebit[wi]; bits; bits &= bits - 1) {
                    const i64 u = (wi << 6) + __builtin_ctzll(bits);
                    i64 src;
                    if (sub == 1 && !fastp[u]) continue;
                    if (midv[u]) {
                        src = csrc[u];
                        if (occ[src] <= 0) continue;
                    } else {
                        src = psrc3[u];
                        if (occ[src] <= 0) {
                            src = psrc3[NU + u];
                            if (occ[src] <= 0) {
                                src = psrc3[2 * NU + u];
                                if (occ[src] <= 0) continue;
                            }
                        }
                    }
                    i64 p = HEADPKT(src);
                    i64 d = midv[u] ? cdst[u] : rttbl[u * (2 * Pn) + prt[p]];
                    PROPOSE(u, src, d, p);
                }
            } else {
                /* per live router, one request pass: per direction,
                   the mask of inputs whose head wants it, and per input
                   the buffer it would leave; LOCAL offers lq_resp
                   first.  The pass does not branch: every input's head
                   direction is read (an empty buffer or the sentinel
                   still holds a valid packet id) and an empty or
                   claimed input adds a zero bit.  Then the router's
                   outputs, in port order. */
                i64 rbase = 0;  /* the first router of rf's replica */
                for (i64 wi = 0; wi < nword; wi++)
                for (u64 bits = livebit[wi]; bits; bits &= bits - 1) {
                    const i64 rf = (wi << 6) + __builtin_ctzll(bits);
                    while (rf - rbase >= V) rbase += V;
                    const i64 *rt = route + (rf - rbase) * Pn;
                    const i64 *ib = inbuf + 5 * rf;
                    const u8 *cl = claim + 5 * rf;
                    i64 m[5] = {0, 0, 0, 0, 0}, from[5];
                    from[4] = occ[lqresp[rf]] > 0 ? lqresp[rf] : lqreq[rf];
                    for (i64 j = 0; j < 4; j++) from[j] = ib[j];
                    for (i64 j = 0; j < 5; j++) {
                        const i64 b = from[j];
                        m[rt[pdest[HEADPKT(b)]]] |= (i64)((occ[b] > 0) & !cl[j]) << j;
                    }
                    for (i64 u = portlo[rf]; u < portlo[rf + 1]; u++) {
                        i64 src, j = 0;
                        if (lockv[u] >= 0) {
                            src = csrc[u];
                            if (occ[src] <= 0) continue;
                        } else {
                            /* first requester at or after the pointer */
                            i64 mu = m[mdir[u]];
                            if (!mu) continue;
                            j = rrv[u];
                            j += LOWBIT[((mu >> j) | (mu << (5 - j))) & 31];
                            if (j >= 5) j -= 5;
                            src = from[j];
                        }
                        rowin[nrow] = j;
                        PROPOSE(u, src, mdst[u], HEADPKT(src));
                    }
                }
            }
            if (!nrow) continue;

            /* ---- resolve: worklist over the seeded (full-dest) rows ----
               The survivors are the greatest fixed point of "no row
               overflows its destination, crediting the slot a surviving
               row drains from it"; it is unique, so the visiting order
               is free.  drainer[]/filler[] can name *the* row because
               every buffer has one reader and every bounded buffer one
               writer per subcycle: a ring buffer feeds one port; a mesh
               input's head routes to one direction, and a mid-packet
               input is claim[]ed by the output locked to it.  At most
               2*NU pushes: one seed and one re-test per row. */
            if (!bypass) {
                while (nwork) rowlive[work[--nwork]] = 0;
            } else {
                while (nwork) {
                    i64 k = work[--nwork];
                    if (!rowlive[k]) continue;
                    i64 d = rowdst[k];
                    i64 dr = drainer[d] - base;
                    i64 draining = dr >= 0 && rowlive[dr];
                    if (occ[d] - draining < capv[d]) continue;
                    rowlive[k] = 0;
                    /* this row's source no longer drains: re-test the
                       one row that fills it */
                    i64 fl = filler[rowsrc[k]] - base;
                    if (fl >= 0 && rowlive[fl]) work[nwork++] = fl;
                }
            }

            /* ---- commit: each surviving row pops, then fills ----
               A pop leaves head + occ as it was, so a fill lands in the
               same slot whether the destination's own pop comes earlier
               or later in this loop; a full buffer with cap == capm
               that also drains takes the new flit in its head slot,
               whose packet id the draining row already holds.  A pop
               of an output queue re-lists the staging column waiting
               on it. */
            for (i64 k = 0; k < nrow; k++) {
                if (!rowlive[k]) continue;
                i64 u = rowport[k];
                i64 s = rowsrc[k];
                i64 d = rowdst[k];
                i64 p = rowpid[k];
                occ[s]--;
                headv[s] = (headv[s] + 1) & smask;
                LIVE_POP(s);
                if (stgwait[s] >= 0) {
                    dirty[ndirty++] = stgwait[s];
                    stgwait[s] = -1;
                }
                comm[rport[u]]++;
                flvl[lvlof[u]]++;
                fmov[rport[u]]++;
                if (issink[d]) {
                    i64 spm = sinkpm[d];
                    i64 c = ++rxcnt[spm];
                    rxpid[spm] = p;
                    if (c == psize[p]) {
                        comp[2 * ncomp] = spm;
                        comp[2 * ncomp + 1] = p;
                        ncomp++;
                        rxcnt[spm] = 0;
                    }
                    ks[K_NETF]--;
                } else {
                    i64 pos = (headv[d] + occ[d]) & smask;
                    slots[(d << blog) + pos] = p;
                    occ[d]++;
                    LIVE_ADD(d, 1);
                }
                /* wormhole state of the committing port */
                if (kind == 0) {
                    if (midv[u]) {
                        if (--remv[u] == 0) midv[u] = 0;
                    } else if (psize[p] > 1) {
                        midv[u] = 1;
                        remv[u] = psize[p] - 1;
                        csrc[u] = s;
                        cdst[u] = d;
                    }
                } else if (lockv[u] >= 0) {
                    if (--remv[u] == 0) {
                        claim[mr5[u] + lockv[u]] = 0;
                        lockv[u] = -1;
                    }
                } else {
                    i64 j = rowin[k];
                    rrv[u] = j == 4 ? 0 : j + 1;
                    if (psize[p] > 1) {
                        lockv[u] = j;
                        claim[mr5[u] + j] = 1;
                        csrc[u] = s;
                        remv[u] = psize[p] - 1;
                    }
                }
            }
        }

        /* ---- watchdog (Engine raises after its clock has ticked) ---- */
        for (i64 r = 0; r < R; r++) {
            if (prop[r] > 0 && comm[r] == 0) {
                if (++stall[r] >= thresh) {
                    ks[K_CYCLE] = cycle + 1;
                    ks[K_ARG] = r;
                    return 3;
                }
            } else {
                stall[r] = 0;
            }
        }

        /* ---- PM update: ejects, memory, local, generate, drain ---- */
        for (i64 k = 0; k < ncomp; k++) {
            i64 pm = comp[2 * k];
            i64 p = comp[2 * k + 1];
            if (presp[p]) {
                outv[pm]--;
                PM_WAKE(pm);
                remopen[pm]--;
                i64 r = rofpm[pm];
                f64 lat = (f64)(cycle - pissue[p]);
                rsum[r] += lat;
                rcnt[r]++;
                if (lat < rmin[r]) rmin[r] = lat;
                if (lat > rmax[r]) rmax[r] = lat;
                rlast[r] = lat;
                rcomp[r]++;
            } else {
                i64 t = (ks[K_MEMH] + ks[K_MEMC]) & mqmask;
                memrdy[t] = cycle + memlat;
                mempm[t] = pm;
                mempid[t] = p;
                ks[K_MEMC]++;
            }
        }
        while (ks[K_MEMC] > 0 && memrdy[ks[K_MEMH] & mqmask] <= cycle) {
            i64 hh = ks[K_MEMH] & mqmask;
            i64 pm = mempm[hh];
            i64 rq = mempid[hh];
            ks[K_MEMH]++;
            ks[K_MEMC]--;
            i64 p = ks[K_NPKT]++;
            u8 rd = pread[rq];
            i64 dpm = psrcp[rq];
            pdest[p] = dpm;
            psrcp[p] = pmloc[pm];
            presp[p] = 1;
            pread[p] = rd;
            psize[p] = rd ? clsz : hdrsz;
            pissue[p] = pissue[rq];
            prt[p] = dpm * 2 + 1;
            STG_PUSH(pm, p);
        }
        while (ks[K_LOCC] > 0 && locrdy[ks[K_LOCH] & mqmask] <= cycle) {
            i64 hh = ks[K_LOCH] & mqmask;
            i64 pm = locpm[hh];
            ks[K_LOCH]++;
            ks[K_LOCC]--;
            outv[pm]--;
            PM_WAKE(pm);
            i64 r = rofpm[pm];
            f64 lat = (f64)memlat;
            lsum[r] += lat;
            lcnt[r]++;
            if (lat < lmin[r]) lmin[r] = lat;
            if (lat > lmax[r]) lmax[r] = lat;
            llast[r] = lat;
            lcomp[r]++;
        }
        /* generate (M-MRP).  A column's countdown expiring is its
           Bernoulli success: the read coin and the target follow it in
           the stream, then the draws of the next gap.  A parked pm's
           countdown is frozen, so its stream resumes the cycle after
           the miss issues, as the object model's does.  With nothing
           parked and no countdown at 1 the cycle only counts down;
           otherwise it visits the columns of pmbit in ascending order,
           which skips the parked ones that cannot unpark. */
        if (ks[K_PENDTOT] == 0 && mincd > 1) {
            for (i64 f = 0; f < NPM; f++) cd[f]--;
            mincd--;
        } else {
            for (i64 wi = 0; wi < npmword; wi++)
            for (u64 bits = pmbit[wi]; bits; bits &= bits - 1) {
                const i64 f = (wi << 6) + __builtin_ctzll(bits);
                const u64 fbit = bits & -bits;
                u8 rd;
                i64 tg;
                if (pend[f]) {
                    if (outv[f] >= tlim) {
                        pmbit[wi] &= ~fbit;
                        continue;
                    }
                    pend[f] = 0;
                    ks[K_PENDTOT]--;
                    rd = pendrd[f];
                    tg = pendtg[f];
                } else {
                    if (--cd[f] != 0) continue;
                    u32 *mt = mtv + f * MT_STATE;
                    if (more[f]) {
                        cd[f] = draw_gap(mt, missthr, chunk, more + f);
                        continue;
                    }
                    rd = (u8)mt_bernoulli(mt, readthr);
                    /* pool row: offset, length, getrandbits width; width
                       0 is a selector that draws nothing for a lone
                       target */
                    const i64 *row = poolrow + 3 * pmloc[f];
                    tg = pool[row[0] + (row[2] ? mt_below(mt, row[1], row[2]) : 0)];
                    cd[f] = draw_gap(mt, missthr, chunk, more + f);
                    if (outv[f] >= tlim) {
                        pend[f] = 1;
                        pendrd[f] = rd;
                        pendtg[f] = tg;
                        ks[K_PENDTOT]++;
                        pmbit[wi] &= ~fbit;
                        continue;
                    }
                }
                outv[f]++;
                i64 r = rofpm[f];
                if (tg == pmloc[f]) {
                    i64 t = (ks[K_LOCH] + ks[K_LOCC]) & mqmask;
                    locrdy[t] = cycle + memlat;
                    locpm[t] = f;
                    ks[K_LOCC]++;
                    liss[r]++;
                } else {
                    i64 p = ks[K_NPKT]++;
                    pdest[p] = tg;
                    psrcp[p] = pmloc[f];
                    presp[p] = 0;
                    pread[p] = rd;
                    psize[p] = rd ? hdrsz : clsz;
                    pissue[p] = cycle;
                    prt[p] = tg * 2;
                    remopen[f]++;
                    STG_PUSH(f + NPM, p);
                    riss[r]++;
                }
            }
            if (ks[K_PENDTOT] == 0) {
                mincd = cd[0];
                for (i64 f = 1; f < NPM; f++) if (cd[f] < mincd) mincd = cd[f];
            }
        }
        /* drain the listed staging columns while whole packets fit.
           Each leaves the list, emptied or waiting on its queue for a
           pop; no two columns share an output queue, so the order
           columns are visited in is free. */
        while (ndirty) {
            const i64 col = dirty[--ndirty];
            const i64 q = stgq[col];
            i64 p = stghead[col];
            for (; p; p = pnext[p]) {
                const i64 sz = psize[p];
                if (stgqcap[col] - occ[q] < sz) {
                    stgwait[q] = col;
                    break;
                }
                const i64 tl = headv[q] + occ[q];
                for (i64 i = 0; i < sz; i++)
                    slots[(q << blog) + ((tl + i) & smask)] = p;
                occ[q] += sz;
                LIVE_ADD(q, sz);
                ks[K_NETF] += sz;
            }
            stghead[col] = p;
        }

        cycle++;
    }
    ks[K_CYCLE] = cycle;
    return 0;
}
"""

#: Compiler flags of the one build.  The sanitizer test extends this list
#: in its own subprocess before the first :func:`load`; the cache entry's
#: name covers them, so an instrumented kernel never shadows the plain one.
_CFLAGS = ["-O3", "-shared", "-fPIC"]

#: Where there is a ``cc`` to ask for and a shared object to map.
_SUPPORTED = sys.platform.startswith(("linux", "darwin"))

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False


def _disabled() -> bool:
    return os.environ.get("REPRO_COLUMNAR_KERNEL", "").lower() in (
        "0",
        "off",
        "no",
        "false",
    )


def _find_cc() -> str | None:
    """The C compiler the kernel is built with, if this platform has one."""
    import shutil

    if not _SUPPORTED:
        return None
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_prefix() -> str | None:
    """``<cache directory>/ckernel-<identity>``: what this kernel's entry
    is called, up to the digest of its bytes.

    ``None`` when there is no directory to trust with code this process
    will execute: it must be the caller's own and writable by nobody
    else.  The identity covers everything the build depends on.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, or not a path the XDG spec honours
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):  # no home to expand "~" to
            return None
    directory = os.path.join(base, "repro")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        status = os.stat(directory)
    except OSError:
        return None
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        return None
    identity = "\0".join([_SOURCE, *_CFLAGS, sys.platform, os.uname().machine])
    digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()
    return os.path.join(directory, f"ckernel-{digest}")


def _entry_name(prefix: str, path: str) -> str:
    """The name the file at *path* is cached under: *prefix*, then a
    digest of its bytes.  ``dlopen`` maps what it is given — handed a
    truncated ELF file, glibc's dies of SIGBUS rather than fail — so
    only a file whose bytes still hash to its name is ever mapped."""
    with open(path, "rb") as handle:
        content = hashlib.sha256(handle.read()).hexdigest()
    return f"{prefix}-{content[:16]}.so"


def _cached(prefix: str) -> ctypes.CDLL | None:
    """Bind this kernel's cache entry; unlink whatever else bears its
    name (truncated, overwritten, not exporting the entry points)."""
    directory, stem = os.path.split(prefix)
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    for name in names:
        if not (name.startswith(stem) and name.endswith(".so")):
            continue
        path = os.path.join(directory, name)
        try:
            lib = _bind(path) if _entry_name(prefix, path) == path else None
        except OSError:
            lib = None
        if lib is not None:
            return lib
        _remove(path)
    return None


def _bind(path: str) -> ctypes.CDLL | None:
    """``dlopen`` *path* and declare the entry points; ``None`` if it is
    not this kernel (not a shared object, an entry point missing)."""
    try:
        lib = ctypes.CDLL(path)
        tables = [ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_int64)]
        lib.seed_streams.restype = None
        lib.seed_streams.argtypes = tables
        lib.step_cycles.restype = ctypes.c_long
        lib.step_cycles.argtypes = [*tables, ctypes.c_int64]
        # column addresses as plain integers (``array.buffer_info``):
        # destination, source, then the sizes
        lib.tile_offset.restype = None
        lib.tile_offset.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 4
        lib.ring_routes.restype = None
        lib.ring_routes.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 4
    except (OSError, AttributeError):
        return None
    return lib


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _private_file(directory: str | None) -> str | None:
    """A fresh file only this process knows, in *directory* (``None``:
    the system temp directory), or ``None`` if it cannot be created."""
    import tempfile

    try:
        handle, path = tempfile.mkstemp(prefix="ckernel-", suffix=".tmp", dir=directory)
    except OSError:
        return None
    os.close(handle)
    return path


def _compile(prefix: str | None) -> ctypes.CDLL | None:
    """Build the kernel and bind it; publish the build under *prefix*.

    The compiler writes a private file in the cache directory, which is
    bound under that name and then moved into place with ``os.replace``
    — no reader ever sees part of a file, and builders racing a cold
    cache publish the same bytes under the same name.  Without a cache
    directory, or if it cannot be written, the build lives in the
    system temp directory for as long as it takes to map it.
    """
    import subprocess

    cc = _find_cc()
    if cc is None:
        return None
    built = _private_file(os.path.dirname(prefix)) if prefix is not None else None
    if built is None:
        prefix, built = None, _private_file(None)
        if built is None:
            return None
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-x", "c", "-o", built, "-"],
            input=_SOURCE.encode("utf-8"),
            capture_output=True,
            timeout=120,
        )
        lib = _bind(built) if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        lib = None
    if lib is not None and prefix is not None:
        try:
            os.replace(built, _entry_name(prefix, built))
            return lib
        except OSError:
            pass  # not cached (full or read-only directory); still bound
    # The mapping stays valid after the unlink on ELF platforms.
    _remove(built)
    return lib


def load() -> ctypes.CDLL | None:
    """The kernel, bound once per process, or ``None``.

    Taken from the cache directory when it holds this kernel, compiled
    (and cached for the next process) otherwise.
    """
    global _lib, _tried
    if _disabled() or not _SUPPORTED:
        return None
    with _lock:
        if not _tried:
            _tried = True
            prefix = _cache_prefix()
            if prefix is not None:
                _lib = _cached(prefix)
            if _lib is None:
                _lib = _compile(prefix)
        return _lib


def available() -> bool:
    return load() is not None
