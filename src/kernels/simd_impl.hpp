// Generic SIMD kernel bodies, templated over a vector abstraction V.
//
// Included ONLY by the per-ISA translation units (simd_avx2.cpp,
// simd_avx512.cpp), which compile with their ISA flag plus
// -ffp-contract=off — contraction of the mul+add chains below into FMA
// would change rounding and break the bitwise contract with the scalar
// loops.
//
// V provides:
//   using Reg;  static constexpr int kLanes;
//   zero(), broadcast(float), load(p), store(p, v),
//   maskload(p, m), maskstore(p, m, v)   // first m lanes; rest untouched/0
//   add, sub, mul, div(Reg, Reg), sqrt(Reg)  // IEEE-exact, like std::sqrt
//   keep_gt_zero(x, v)                   // x > 0 ? v : +0.0f, per lane
//   transpose(Reg (&r)[kLanes])          // in-register kLanes x kLanes
//   maskload_bits(p, bits)               // lanes in `bits` from p[l], rest 0
//   maskload_up(p, bits, up)             // lane l = p[l - up] for l in
//                                        // `bits` (all >= up), rest 0
//   mask_add(acc, bits, x)               // acc + x on `bits`, acc elsewhere
//   keep_ge(x, p, v)                     // x >= p ? v : +0.0f, per lane
//   kPhiloxBatches                       // dropout_mask's interleaved batches
//   Words: the Philox word ops of rng/philox_round.hpp over a kLanes-wide
//     integer register, plus lanes() (0, 1, ..., kLanes - 1), add, load,
//     store, interleave4(w[4]) (lane-major 4 x kLanes words -> stream
//     order: w[m] = words m * kLanes ... of the batch) and unit_float(w)
//     (next_float's map per lane)
//
// The determinism argument, once, for all bodies here: lanes are DISTINCT
// OUTPUT ELEMENTS (GEMM columns, reduction slots, conv output columns,
// elementwise indices).  Each lane executes, in program order, exactly the
// adds/muls the scalar loop executes for that element — the vector
// instruction just executes 8/16 independent scalar chains at once.  IEEE
// ops are deterministic per lane, so the stores are bitwise those of the
// scalar loop.  Lane count therefore cannot appear in the numerics, which
// is why an AVX-512 body and an AVX2 body agree with each other and with
// the scalar fallback.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "kernels/simd.hpp"
#include "rng/philox_round.hpp"
#include "rng/philox_state.hpp"

namespace easyscale::kernels::simd_impl {

using std::int64_t;

// ---------------------------------------------------------------------------
// GEMM row panels.  c_row[j] (+)= dot(a_row, B[:, j]).  One j-tile = T
// vectors of V::kLanes output columns; `m` lanes of the last vector may be
// masked.  W interleaved accumulator registers per tile reproduce
// dot_interleaved<W> per lane; T > 1 only adds independent parallel chains
// (more outputs in flight), never re-associates any one output's sum.
//
// Every tile reads B through (bbase, bs): bbase points at the element for
// k row 0 / output column j, and consecutive k rows are `bs` floats apart.
// Unpacked B[k, n] passes bbase = b + j, bs = n; the packed layout passes
// the tile base and bs = gemm_tile_cols.  The addressing never enters the
// numerics, so both layouts produce bitwise-identical stores.
// ---------------------------------------------------------------------------

/// Column-tile width (in vectors) of the packed-B layout and of the wide
/// interior tiles; 6 measured fastest on both AVX2 and AVX-512.
inline constexpr int kPanelTileVecs = 6;

// Full-width or first-m-lanes load/store.
template <typename V>
inline typename V::Reg load_m(const float* p, int m) {
  return m == V::kLanes ? V::load(p) : V::maskload(p, m);
}
template <typename V>
inline void store_m(float* p, int m, typename V::Reg v) {
  if (m == V::kLanes) {
    V::store(p, v);
  } else {
    V::maskstore(p, m, v);
  }
}

template <typename V, int W, int T, bool Masked>
inline void gemm_tile(const float* a, const float* bbase, int64_t bs,
                      int64_t k, int64_t j, int m, float* c, bool accumulate) {
  using Reg = typename V::Reg;
  constexpr int64_t L = V::kLanes;
  auto loadm = [&](const float* p, int t) {
    if constexpr (Masked) {
      return t + 1 == T ? V::maskload(p + t * L, m) : V::load(p + t * L);
    } else {
      (void)m;
      return V::load(p + t * L);
    }
  };
  Reg acc[W][T];
  for (int w = 0; w < W; ++w) {
    for (int t = 0; t < T; ++t) acc[w][t] = V::zero();
  }
  int64_t kk = 0;
  for (; kk + W <= k; kk += W) {
    // Constant trip counts: the compiler fully unrolls, so acc indices are
    // compile-time and the accumulators live in registers.
    for (int w = 0; w < W; ++w) {
      const Reg av = V::broadcast(a[kk + w]);
      const float* bp = bbase + (kk + w) * bs;
      for (int t = 0; t < T; ++t) {
        acc[w][t] = V::add(acc[w][t], V::mul(av, loadm(bp, t)));
      }
    }
  }
  for (; kk < k; ++kk) {  // remainder: all into acc[0], like the scalar loop
    const Reg av = V::broadcast(a[kk]);
    const float* bp = bbase + kk * bs;
    for (int t = 0; t < T; ++t) {
      acc[0][t] = V::add(acc[0][t], V::mul(av, loadm(bp, t)));
    }
  }
  for (int t = 0; t < T; ++t) {
    // Pinned fold order: total = 0 + acc[0] + acc[1] + ... (the leading
    // 0 + acc[0] is the scalar fold's first add and matters for -0.0).
    Reg total = V::zero();
    for (int w = 0; w < W; ++w) total = V::add(total, acc[w][t]);
    float* cp = c + j + t * L;
    const bool masked_t = Masked && t + 1 == T;
    if (accumulate) {
      const Reg prev = masked_t ? V::maskload(cp, m) : V::load(cp);
      total = V::add(prev, total);
    }
    if (masked_t) {
      V::maskstore(cp, m, total);
    } else {
      V::store(cp, total);
    }
  }
}

// kBlocked8: within a k-block of 8 a sequential partial, block partials
// folded left-to-right into a running total (dot_blocked per lane).
template <typename V, int T, bool Masked>
inline void gemm_tile_blocked8(const float* a, const float* bbase, int64_t bs,
                               int64_t k, int64_t j, int m, float* c,
                               bool accumulate) {
  using Reg = typename V::Reg;
  constexpr int64_t L = V::kLanes;
  auto loadm = [&](const float* p, int t) {
    if constexpr (Masked) {
      return t + 1 == T ? V::maskload(p + t * L, m) : V::load(p + t * L);
    } else {
      (void)m;
      return V::load(p + t * L);
    }
  };
  Reg total[T];
  for (int t = 0; t < T; ++t) total[t] = V::zero();
  for (int64_t b0 = 0; b0 < k; b0 += 8) {
    const int64_t b1 = b0 + 8 < k ? b0 + 8 : k;
    Reg part[T];
    for (int t = 0; t < T; ++t) part[t] = V::zero();
    for (int64_t kk = b0; kk < b1; ++kk) {
      const Reg av = V::broadcast(a[kk]);
      const float* bp = bbase + kk * bs;
      for (int t = 0; t < T; ++t) {
        part[t] = V::add(part[t], V::mul(av, loadm(bp, t)));
      }
    }
    for (int t = 0; t < T; ++t) total[t] = V::add(total[t], part[t]);
  }
  for (int t = 0; t < T; ++t) {
    float* cp = c + j + t * L;
    const bool masked_t = Masked && t + 1 == T;
    Reg out = total[t];
    if (accumulate) {
      const Reg prev = masked_t ? V::maskload(cp, m) : V::load(cp);
      out = V::add(prev, out);
    }
    if (masked_t) {
      V::maskstore(cp, m, out);
    } else {
      V::store(cp, out);
    }
  }
}

template <typename V>
inline void gemm_segment_blocked8(const float* a, const float* bbase,
                                  int64_t bs, int64_t k, int64_t j0,
                                  int64_t j1, float* c, bool accumulate) {
  constexpr int64_t L = V::kLanes;
  int64_t j = j0;
  const float* bb = bbase;
  for (; j + 2 * L <= j1; j += 2 * L, bb += 2 * L) {
    gemm_tile_blocked8<V, 2, false>(a, bb, bs, k, j, 0, c, accumulate);
  }
  for (; j + L <= j1; j += L, bb += L) {
    gemm_tile_blocked8<V, 1, false>(a, bb, bs, k, j, 0, c, accumulate);
  }
  if (j < j1) {
    gemm_tile_blocked8<V, 1, true>(a, bb, bs, k, j, static_cast<int>(j1 - j),
                                   c, accumulate);
  }
}

// Kahan-compensated panel: per lane exactly kahan_dot's recurrence.
template <typename V, int T, bool Masked>
inline void gemm_tile_kahan(const float* a, const float* bbase, int64_t bs,
                            int64_t k, int64_t j, int m, float* c,
                            bool accumulate) {
  using Reg = typename V::Reg;
  constexpr int64_t L = V::kLanes;
  auto loadm = [&](const float* p, int t) {
    if constexpr (Masked) {
      return t + 1 == T ? V::maskload(p + t * L, m) : V::load(p + t * L);
    } else {
      (void)m;
      return V::load(p + t * L);
    }
  };
  Reg sum[T], comp[T];
  for (int t = 0; t < T; ++t) sum[t] = comp[t] = V::zero();
  for (int64_t kk = 0; kk < k; ++kk) {
    const Reg av = V::broadcast(a[kk]);
    const float* bp = bbase + kk * bs;
    for (int t = 0; t < T; ++t) {
      const Reg term = V::sub(V::mul(av, loadm(bp, t)), comp[t]);
      const Reg next = V::add(sum[t], term);
      comp[t] = V::sub(V::sub(next, sum[t]), term);
      sum[t] = next;
    }
  }
  for (int t = 0; t < T; ++t) {
    float* cp = c + j + t * L;
    const bool masked_t = Masked && t + 1 == T;
    Reg out = sum[t];
    if (accumulate) {
      const Reg prev = masked_t ? V::maskload(cp, m) : V::load(cp);
      out = V::add(prev, out);
    }
    if (masked_t) {
      V::maskstore(cp, m, out);
    } else {
      V::store(cp, out);
    }
  }
}

// Wide interior tile, split into passes of PW accumulator chains.  Keeping
// all W x T accumulators live spills registers (W=8, T>=2 exceeds the 16
// ymm file and the spilled add chains triple in latency), so the k loop
// runs W/PW times, pass h owning chains [h*PW, h*PW + PW).  Chain w still
// consumes its terms (kk == w mod W) in strictly ascending kk — passes
// reorder work ACROSS independent chains, never within one — and the
// pass partials round-trip through a spill buffer, which is bit-preserving.
// The final fold is the same left-to-right 0 + acc[0] + ... + acc[W-1].
template <typename V, int W, int PW, int T>
inline void gemm_tile_split(const float* a, const float* bbase, int64_t bs,
                            int64_t k, int64_t j, float* c, bool accumulate) {
  static_assert(W % PW == 0);
  using Reg = typename V::Reg;
  constexpr int64_t L = V::kLanes;
  alignas(64) float spill[W][T][static_cast<std::size_t>(V::kLanes)];
  for (int h = 0; h < W / PW; ++h) {
    Reg acc[PW][T];
    for (int p = 0; p < PW; ++p) {
      for (int t = 0; t < T; ++t) acc[p][t] = V::zero();
    }
    int64_t kk = 0;
    for (; kk + W <= k; kk += W) {
      for (int p = 0; p < PW; ++p) {
        const int w = h * PW + p;
        const Reg av = V::broadcast(a[kk + w]);
        const float* bp = bbase + (kk + w) * bs;
        for (int t = 0; t < T; ++t) {
          acc[p][t] = V::add(acc[p][t], V::mul(av, V::load(bp + t * L)));
        }
      }
    }
    if (h == 0) {  // remainder: all into chain 0, like the scalar loop
      for (; kk < k; ++kk) {
        const Reg av = V::broadcast(a[kk]);
        const float* bp = bbase + kk * bs;
        for (int t = 0; t < T; ++t) {
          acc[0][t] = V::add(acc[0][t], V::mul(av, V::load(bp + t * L)));
        }
      }
    }
    for (int p = 0; p < PW; ++p) {
      for (int t = 0; t < T; ++t) V::store(spill[h * PW + p][t], acc[p][t]);
    }
  }
  for (int t = 0; t < T; ++t) {
    Reg total = V::zero();
    for (int w = 0; w < W; ++w) total = V::add(total, V::load(spill[w][t]));
    float* cp = c + j + t * L;
    if (accumulate) total = V::add(V::load(cp), total);
    V::store(cp, total);
  }
}

// Segment driver: wide split-pass tiles over the interior, then single
// tiles, then one masked tile, all addressed through (bbase, bs).
// PW = min(W, 2) and T = kPanelTileVecs keep 12 accumulators live —
// measured fastest on both 16- and 32-register files; the narrow tail
// tiles reuse the simple all-chains-live form.
template <typename V, int W>
inline void gemm_segment_w(const float* a, const float* bbase, int64_t bs,
                           int64_t k, int64_t j0, int64_t j1, float* c,
                           bool accumulate) {
  constexpr int64_t L = V::kLanes;
  constexpr int PW = W < 2 ? W : 2;
  constexpr int T = kPanelTileVecs;
  int64_t j = j0;
  const float* bb = bbase;
  for (; j + T * L <= j1; j += T * L, bb += T * L) {
    gemm_tile_split<V, W, PW, T>(a, bb, bs, k, j, c, accumulate);
  }
  for (; j + L <= j1; j += L, bb += L) {
    gemm_tile<V, W, 1, false>(a, bb, bs, k, j, 0, c, accumulate);
  }
  if (j < j1) {
    gemm_tile<V, W, 1, true>(a, bb, bs, k, j, static_cast<int>(j1 - j), c,
                             accumulate);
  }
}

// Variant dispatch over one (bbase, bs)-addressed segment of columns.
template <typename V>
inline void gemm_segment(GemmVariant variant, const float* a,
                         const float* bbase, int64_t bs, int64_t k,
                         int64_t j0, int64_t j1, float* c, bool accumulate) {
  switch (variant) {
    case GemmVariant::kSequential:
      gemm_segment_w<V, 1>(a, bbase, bs, k, j0, j1, c, accumulate);
      return;
    case GemmVariant::kInterleaved2:
      gemm_segment_w<V, 2>(a, bbase, bs, k, j0, j1, c, accumulate);
      return;
    case GemmVariant::kInterleaved4:
      gemm_segment_w<V, 4>(a, bbase, bs, k, j0, j1, c, accumulate);
      return;
    case GemmVariant::kInterleaved8:
      gemm_segment_w<V, 8>(a, bbase, bs, k, j0, j1, c, accumulate);
      return;
    case GemmVariant::kBlocked8:
      gemm_segment_blocked8<V>(a, bbase, bs, k, j0, j1, c, accumulate);
      return;
  }
  ES_THROW("unreachable gemm variant");
}

template <typename V>
void gemm_panel(GemmVariant variant, const float* a, const float* b,
                int64_t k, int64_t n, int64_t j0, int64_t j1, float* c,
                bool accumulate) {
  gemm_segment<V>(variant, a, b + j0, n, k, j0, j1, c, accumulate);
}

/// Packed-B panel: resolve the tile each column range lives in (tile t
/// holds columns [t*TW, (t+1)*TW) at row stride TW, zero-padded past n)
/// and run the ordinary segment driver inside it.  Chunk boundaries need
/// not align to tiles.
template <typename V>
void gemm_panel_packed(GemmVariant variant, const float* a,
                       const float* packed, int64_t k, int64_t n, int64_t j0,
                       int64_t j1, float* c, bool accumulate) {
  (void)n;
  constexpr int64_t TW = kPanelTileVecs * V::kLanes;
  int64_t j = j0;
  while (j < j1) {
    const int64_t tile = j / TW;
    const int64_t jend = j1 < (tile + 1) * TW ? j1 : (tile + 1) * TW;
    const float* bbase = packed + tile * k * TW + (j - tile * TW);
    gemm_segment<V>(variant, a, bbase, TW, k, j, jend, c, accumulate);
    j = jend;
  }
}

template <typename V>
void kahan_panel(const float* a, const float* b, int64_t k, int64_t n,
                 int64_t j0, int64_t j1, float* c, bool accumulate) {
  constexpr int64_t L = V::kLanes;
  int64_t j = j0;
  const float* bb = b + j0;
  for (; j + 2 * L <= j1; j += 2 * L, bb += 2 * L) {
    gemm_tile_kahan<V, 2, false>(a, bb, n, k, j, 0, c, accumulate);
  }
  for (; j + L <= j1; j += L, bb += L) {
    gemm_tile_kahan<V, 1, false>(a, bb, n, k, j, 0, c, accumulate);
  }
  if (j < j1) {
    gemm_tile_kahan<V, 1, true>(a, bb, n, k, j, static_cast<int>(j1 - j), c,
                                accumulate);
  }
}

// ---------------------------------------------------------------------------
// Row-blocked GEMM: kRowBlock whole rows share each B vector load.  Per
// row and lane the chains are gemm_tile's: chain w takes the terms
// kk == w mod W in ascending kk, the k remainder goes to chain 0, and the
// fold is 0 + acc[0] + ... + acc[W-1].  Chains run PW at a time (the
// passes of gemm_tile_split), and since the passes go in ascending w,
// each pass's chains are folded into the running total as soon as they
// complete — the same left-to-right fold, with no spill buffer.
// ---------------------------------------------------------------------------

/// Rows per block: with PW = 2 chains per pass that is 8 independent
/// chains in flight, enough to cover the add latency on two FP ports.
inline constexpr int kRowBlock = 4;

template <typename V, int W, bool MaskB>
inline void gemm_rows_vec(const float* a, int64_t k, const float* bp0,
                          int64_t bs, float* c, int64_t ldc, int m,
                          bool accumulate) {
  using Reg = typename V::Reg;
  constexpr int R = kRowBlock;
  constexpr int PW = W < 2 ? W : 2;
  auto loadb = [&](const float* p) {
    if constexpr (MaskB) {
      return V::maskload(p, m);
    } else {
      return V::load(p);
    }
  };
  Reg total[R];
  for (int r = 0; r < R; ++r) total[r] = V::zero();
  for (int h = 0; h < W / PW; ++h) {
    Reg acc[R][PW];
    for (int r = 0; r < R; ++r) {
      for (int p = 0; p < PW; ++p) acc[r][p] = V::zero();
    }
    int64_t kk = 0;
    for (; kk + W <= k; kk += W) {
      for (int p = 0; p < PW; ++p) {
        const int w = h * PW + p;
        const Reg bv = loadb(bp0 + (kk + w) * bs);
        for (int r = 0; r < R; ++r) {
          acc[r][p] = V::add(acc[r][p],
                             V::mul(V::broadcast(a[r * k + kk + w]), bv));
        }
      }
    }
    if (h == 0) {  // remainder: all into chain 0, like the scalar loop
      for (; kk < k; ++kk) {
        const Reg bv = loadb(bp0 + kk * bs);
        for (int r = 0; r < R; ++r) {
          acc[r][0] =
              V::add(acc[r][0], V::mul(V::broadcast(a[r * k + kk]), bv));
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int p = 0; p < PW; ++p) total[r] = V::add(total[r], acc[r][p]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* cp = c + r * ldc;
    Reg out = total[r];
    if (accumulate) out = V::add(load_m<V>(cp, m), out);
    store_m<V>(cp, m, out);
  }
}

/// One row block over a (bbase, bs)-addressed segment of `cols` columns;
/// the tail vector masks its stores, and its B loads too unless
/// `b_padded` (packed tiles are zero-padded in-bounds past n).
template <typename V, int W>
inline void gemm_rows_segment(const float* a, int64_t k, const float* bbase,
                              int64_t bs, int64_t cols, bool b_padded,
                              float* c, int64_t ldc, bool accumulate) {
  constexpr int64_t L = V::kLanes;
  int64_t j = 0;
  for (; j + L <= cols; j += L) {
    gemm_rows_vec<V, W, false>(a, k, bbase + j, bs, c + j, ldc,
                               static_cast<int>(L), accumulate);
  }
  if (j == cols) return;
  const int m = static_cast<int>(cols - j);
  if (b_padded) {
    gemm_rows_vec<V, W, false>(a, k, bbase + j, bs, c + j, ldc, m,
                               accumulate);
  } else {
    gemm_rows_vec<V, W, true>(a, k, bbase + j, bs, c + j, ldc, m,
                              accumulate);
  }
}

template <typename V, int W>
inline void gemm_rows_block(const float* a, const float* b, bool packed,
                            int64_t k, int64_t n, float* c, bool accumulate) {
  if (!packed) {
    gemm_rows_segment<V, W>(a, k, b, n, n, false, c, n, accumulate);
    return;
  }
  constexpr int64_t TW = kPanelTileVecs * V::kLanes;
  for (int64_t t = 0; t * TW < n; ++t) {
    const int64_t cols = n - t * TW < TW ? n - t * TW : TW;
    gemm_rows_segment<V, W>(a, k, b + t * k * TW, TW, cols, true,
                            c + t * TW, n, accumulate);
  }
}

/// Row panel of row i over all n columns (packed or unpacked B).
template <typename V>
inline void gemm_row(GemmVariant variant, const float* a, const float* b,
                     bool packed, int64_t k, int64_t n, int64_t i, float* c,
                     bool accumulate) {
  if (packed) {
    gemm_panel_packed<V>(variant, a + i * k, b, k, n, 0, n, c + i * n,
                         accumulate);
  } else {
    gemm_panel<V>(variant, a + i * k, b, k, n, 0, n, c + i * n, accumulate);
  }
}

/// Rows [i0, i1) in blocks of kRowBlock; the last (i1 - i0) % kRowBlock
/// rows take the per-row panel.
template <typename V, int W>
inline void gemm_rows_w(GemmVariant variant, const float* a, const float* b,
                        bool packed, int64_t k, int64_t n, int64_t i0,
                        int64_t i1, float* c, bool accumulate) {
  int64_t i = i0;
  for (; i + kRowBlock <= i1; i += kRowBlock) {
    gemm_rows_block<V, W>(a + i * k, b, packed, k, n, c + i * n, accumulate);
  }
  for (; i < i1; ++i) {
    gemm_row<V>(variant, a, b, packed, k, n, i, c, accumulate);
  }
}

template <typename V>
void gemm_rows(GemmVariant variant, const float* a, const float* b,
               bool packed, int64_t k, int64_t n, int64_t i0, int64_t i1,
               float* c, bool accumulate) {
  switch (variant) {
    case GemmVariant::kSequential:
      gemm_rows_w<V, 1>(variant, a, b, packed, k, n, i0, i1, c,
                            accumulate);
      return;
    case GemmVariant::kInterleaved2:
      gemm_rows_w<V, 2>(variant, a, b, packed, k, n, i0, i1, c,
                            accumulate);
      return;
    case GemmVariant::kInterleaved4:
      gemm_rows_w<V, 4>(variant, a, b, packed, k, n, i0, i1, c,
                            accumulate);
      return;
    case GemmVariant::kInterleaved8:
      gemm_rows_w<V, 8>(variant, a, b, packed, k, n, i0, i1, c,
                            accumulate);
      return;
    case GemmVariant::kBlocked8:
      for (int64_t i = i0; i < i1; ++i) {
        gemm_row<V>(variant, a, b, packed, k, n, i, c, accumulate);
      }
      return;
  }
  ES_THROW("unreachable gemm variant");
}

// ---------------------------------------------------------------------------
// Block transpose: kLanes x kLanes blocks go through registers (masked
// loads and stores at the ragged edges, zero rows past `rows` that are
// never stored).  Pure data movement.
// ---------------------------------------------------------------------------

template <typename V>
void transpose(const float* src, int64_t rows, int64_t cols, int64_t lds,
               float* dst, int64_t ldd) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  for (int64_t c0 = 0; c0 < cols; c0 += L) {
    const int nc = cols - c0 < L ? static_cast<int>(cols - c0) : L;
    for (int64_t r0 = 0; r0 < rows; r0 += L) {
      const int nr = rows - r0 < L ? static_cast<int>(rows - r0) : L;
      Reg v[L];
      const float* s = src + r0 * lds + c0;
      float* d = dst + c0 * ldd + r0;
      if (nr == L && nc == L) {
        for (int i = 0; i < L; ++i) v[i] = V::load(s + i * lds);
        V::transpose(v);
        for (int i = 0; i < L; ++i) V::store(d + i * ldd, v[i]);
        continue;
      }
      for (int i = 0; i < L; ++i) {
        v[i] = i < nr ? load_m<V>(s + i * lds, nc) : V::zero();
      }
      V::transpose(v);
      for (int i = 0; i < nc; ++i) store_m<V>(d + i * ldd, nr, v[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Same-geometry im2col / col2im (ConvSameArgs).  A tap is a flat shift
// `s`, so one vector of outputs is one masked load at offset v*L + s of the
// source plane.  The lane masks (the cells whose row and column stay inside
// both planes) depend on the geometry alone: they are built once per call,
// one per (tap, vector), and reused by every channel.  A load window that
// starts before the plane is taken from the plane's base and its lanes are
// moved up (maskload_up), so no pointer ever leaves the buffer.
// ---------------------------------------------------------------------------

namespace conv_same {

/// Masks per call: kMaxTaps taps x up to kMaxPlane / 8 vectors (AVX2).
constexpr int64_t kMaxMasks =
    ConvSameArgs::kMaxTaps * (ConvSameArgs::kMaxPlane / 8);

/// Lanes [lo, hi) of an L-lane vector, clamped to [0, L).
template <int L>
inline unsigned lane_range(int64_t lo, int64_t hi) {
  lo = lo < 0 ? 0 : (lo > L ? L : lo);
  hi = hi < 0 ? 0 : (hi > L ? L : hi);
  return lo >= hi ? 0u : ((1u << hi) - 1u) & ~((1u << lo) - 1u);
}

/// masks[t * nvec + v]: the lanes of vector v of the [rows, w] target plane
/// that tap t = (kh, kw) reaches, i.e. the cells (y, x) with
/// y - dir * (pad - kh) in [0, reach) and x - dir * (pad - kw) in [0, w):
/// im2col targets the output plane (dir = +1, reach = in_h), col2im the
/// input plane (dir = -1, reach = out_h).  A mask is its row lanes (one
/// contiguous run) AND its column lanes (one run per row the vector
/// spans), so a call costs O(taps * nvec), not O(taps * plane).
template <int L>
inline void build_masks(const ConvSameArgs& g, int64_t rows, int64_t reach,
                        int64_t dir, int64_t nvec, std::uint16_t* masks) {
  const int64_t w = g.in_w;
  for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
    const int64_t x0 = dir * (g.pad - kw);
    const int64_t xlo = std::max<int64_t>(x0, 0), xhi = std::min(x0 + w, w);
    for (int64_t v = 0; v < nvec; ++v) {
      const int64_t i0 = v * L;
      unsigned cols = 0;
      for (int64_t y = i0 / w; y * w < i0 + L; ++y) {
        cols |= lane_range<L>(y * w - i0 + xlo, y * w - i0 + xhi);
      }
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        const int64_t y0 = dir * (g.pad - kh);
        const int64_t ylo = std::max<int64_t>(y0, 0);
        const int64_t yhi = std::min(y0 + reach, rows);
        masks[(kh * g.kernel_w + kw) * nvec + v] = static_cast<std::uint16_t>(
            cols & lane_range<L>(ylo * w - i0, yhi * w - i0));
      }
    }
  }
}

/// shift[t]: the flat offset of tap t, (kh - pad) * in_w + (kw - pad).
inline void build_shifts(const ConvSameArgs& g, int64_t* shift) {
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
      shift[kh * g.kernel_w + kw] = (kh - g.pad) * g.in_w + (kw - g.pad);
    }
  }
}

/// Lanes `bits` of src[o + l] (o may be negative: then every set lane has
/// l >= -o, and the window is taken from src itself).
template <typename V>
inline typename V::Reg load_shifted(const float* src, int64_t o,
                                    unsigned bits) {
  return o >= 0 ? V::maskload_bits(src + o, bits)
                : V::maskload_up(src, bits, static_cast<int>(-o));
}

}  // namespace conv_same

template <typename V>
void im2col_same(const ConvSameArgs& g, const float* planes, int64_t c0,
                 int64_t c1, float* cols) {
  constexpr int L = V::kLanes;
  const int64_t taps = g.kernel_h * g.kernel_w;
  const int64_t w = g.in_w;
  const int64_t in_plane = g.in_h * w, out_plane = g.out_h * w;
  const int64_t nvec = (out_plane + L - 1) / L;
  const int tail = static_cast<int>(out_plane - (nvec - 1) * L);
  std::uint16_t masks[conv_same::kMaxMasks];
  int64_t shift[ConvSameArgs::kMaxTaps];
  conv_same::build_masks<L>(g, g.out_h, g.in_h, 1, nvec, masks);
  conv_same::build_shifts(g, shift);
  for (int64_t c = c0; c < c1; ++c) {
    const float* plane = planes + c * in_plane;
    for (int64_t t = 0; t < taps; ++t) {
      // Output i of tap t reads input i + shift[t].
      const std::uint16_t* tm = masks + t * nvec;
      float* dst = cols + (c * taps + t) * out_plane;
      for (int64_t v = 0; v < nvec; ++v) {
        const auto val =
            tm[v] == 0
                ? V::zero()
                : conv_same::load_shifted<V>(plane, v * L + shift[t], tm[v]);
        store_m<V>(dst + v * L, v + 1 == nvec ? tail : L, val);
      }
    }
  }
}

template <typename V>
void col2im_same(const ConvSameArgs& g, const float* cols, int64_t c0,
                 int64_t c1, float* planes) {
  constexpr int L = V::kLanes;
  const int64_t taps = g.kernel_h * g.kernel_w;
  const int64_t w = g.in_w;
  const int64_t in_plane = g.in_h * w, out_plane = g.out_h * w;
  const int64_t nvec = (in_plane + L - 1) / L;
  const int tail = static_cast<int>(in_plane - (nvec - 1) * L);
  std::uint16_t masks[conv_same::kMaxMasks];
  int64_t shift[ConvSameArgs::kMaxTaps];
  conv_same::build_masks<L>(g, g.in_h, g.out_h, -1, nvec, masks);
  conv_same::build_shifts(g, shift);
  for (int64_t c = c0; c < c1; ++c) {
    float* plane = planes + c * in_plane;
    const float* crow = cols + c * taps * out_plane;
    for (int64_t v = 0; v < nvec; ++v) {
      const int lanes = v + 1 == nvec ? tail : L;
      auto acc = load_m<V>(plane + v * L, lanes);
      for (int64_t t = 0; t < taps; ++t) {
        const unsigned m = masks[t * nvec + v];
        if (m == 0) continue;
        // Input j of tap t receives output j - shift[t].
        acc = V::mask_add(acc, m,
                          conv_same::load_shifted<V>(
                              crow + t * out_plane, v * L - shift[t], m));
      }
      store_m<V>(plane + v * L, lanes, acc);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched strided reduction: lanes are output slots.  Per slot the leaf /
// fold order is exactly sum_segments' (reduce.cpp); the strided loads
// values[s + i * stride] are contiguous across lanes.
// ---------------------------------------------------------------------------

template <typename V>
inline void reduce_slots(ReduceVariant variant, const float* v0,
                         int64_t stride, int64_t count, float* out, int m) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  auto loadm = [&](const float* p) {
    return m == L ? V::load(p) : V::maskload(p, m);
  };
  // Plain-struct box so std::vector never sees the raw vector-attribute
  // type (dodges -Wignored-attributes; alignment is preserved through the
  // C++17 aligned operator new).
  struct RegBox {
    Reg v;
  };
  Reg total;
  if (variant == ReduceVariant::kSequential) {
    Reg acc = V::zero();
    for (int64_t i = 0; i < count; ++i) {
      acc = V::add(acc, loadm(v0 + i * stride));
    }
    total = acc;
  } else {
    const int64_t width = variant == ReduceVariant::kPairwise64    ? 64
                          : variant == ReduceVariant::kPairwise128 ? 128
                                                                   : 256;
    // Leaf partials on the stack (one heap buffer past kStack leaves),
    // folded in place.
    constexpr int64_t kStack = 64;
    const int64_t leaves = (count + width - 1) / width;
    RegBox stack[kStack];
    std::vector<RegBox> heap;
    RegBox* part = stack;
    if (leaves > kStack) {
      heap.resize(static_cast<std::size_t>(leaves));
      part = heap.data();
    }
    // Four full leaves at a time as independent chains, then the rest one
    // by one; every leaf is still summed in ascending order.
    const int64_t full = count / width;
    int64_t j = 0;
    for (; j + 4 <= full; j += 4) {
      const float* p = v0 + j * width * stride;
      const int64_t leaf = width * stride;
      Reg a0 = V::zero(), a1 = V::zero(), a2 = V::zero(), a3 = V::zero();
      for (int64_t i = 0; i < width; ++i, p += stride) {
        a0 = V::add(a0, loadm(p));
        a1 = V::add(a1, loadm(p + leaf));
        a2 = V::add(a2, loadm(p + 2 * leaf));
        a3 = V::add(a3, loadm(p + 3 * leaf));
      }
      part[j].v = a0;
      part[j + 1].v = a1;
      part[j + 2].v = a2;
      part[j + 3].v = a3;
    }
    for (; j < leaves; ++j) {
      const int64_t b1 = std::min(count, (j + 1) * width);
      Reg a = V::zero();
      for (int64_t i = j * width; i < b1; ++i) {
        a = V::add(a, loadm(v0 + i * stride));
      }
      part[j].v = a;
    }
    int64_t n = leaves;
    while (n > 1) {  // pairwise fold, odd partial carried
      int64_t k = 0;
      for (int64_t i = 0; i + 1 < n; i += 2) {
        part[k++].v = V::add(part[i].v, part[i + 1].v);
      }
      if (n % 2) part[k++] = part[n - 1];
      n = k;
    }
    total = n == 0 ? V::zero() : part[0].v;
  }
  if (m == L) {
    V::store(out, V::add(V::load(out), total));
  } else {
    V::maskstore(out, m, V::add(V::maskload(out, m), total));
  }
}

template <typename V>
void reduce_batch(ReduceVariant variant, const float* values, int64_t stride,
                  int64_t count, int64_t s0, int64_t s1, float* out) {
  constexpr int64_t L = V::kLanes;
  int64_t s = s0;
  for (; s + L <= s1; s += L) {
    reduce_slots<V>(variant, values + s, stride, count, out + s,
                    static_cast<int>(L));
  }
  if (s < s1) {
    reduce_slots<V>(variant, values + s, stride, count, out + s,
                    static_cast<int>(s1 - s));
  }
}

// ---------------------------------------------------------------------------
// Direct-conv stride-1 row interior: lanes are output columns x; per lane
// the canonical single accumulator walks c -> kh -> kw, then + bias.
// ---------------------------------------------------------------------------

template <typename V, int T, bool Masked>
inline void conv_tile(const ConvRowArgs& g, int64_t x, int m) {
  using Reg = typename V::Reg;
  constexpr int64_t L = V::kLanes;
  auto loadm = [&](const float* p, int t) {
    if constexpr (Masked) {
      return t + 1 == T ? V::maskload(p + t * L, m) : V::load(p + t * L);
    } else {
      (void)m;
      return V::load(p + t * L);
    }
  };
  Reg acc[T];
  for (int t = 0; t < T; ++t) acc[t] = V::zero();
  for (int64_t c = 0; c < g.cg; ++c) {
    const float* in_c = g.in_n + (g.ic0 + c) * g.in_h * g.in_w;
    const float* w_c = g.w_f + c * g.kernel_h * g.kernel_w;
    for (int64_t kh = g.kh_lo; kh < g.kh_hi; ++kh) {
      const float* row = in_c + (g.iy0 + kh) * g.in_w + (x - g.pad);
      const float* wr = w_c + kh * g.kernel_w;
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const Reg tap = V::broadcast(wr[kw]);
        for (int t = 0; t < T; ++t) {
          acc[t] = V::add(acc[t], V::mul(tap, loadm(row + kw, t)));
        }
      }
    }
  }
  const Reg bias = V::broadcast(g.bias);
  for (int t = 0; t < T; ++t) {
    const Reg res = V::add(acc[t], bias);
    if (Masked && t + 1 == T) {
      V::maskstore(g.out_row + x + t * L, m, res);
    } else {
      V::store(g.out_row + x + t * L, res);
    }
  }
}

template <typename V>
void conv_row(const ConvRowArgs& g) {
  constexpr int64_t L = V::kLanes;
  int64_t x = g.x_lo;
  for (; x + 2 * L <= g.x_hi; x += 2 * L) conv_tile<V, 2, false>(g, x, 0);
  for (; x + L <= g.x_hi; x += L) conv_tile<V, 1, false>(g, x, 0);
  if (x < g.x_hi) conv_tile<V, 1, true>(g, x, static_cast<int>(g.x_hi - x));
}

// ---------------------------------------------------------------------------
// Dropout mask.  Lanes are Philox block counters: lane l of a batch runs
// counter c + l through the same rounds as Philox::refill, so its four words
// are the block refill() would produce, and interleave4 lays the batch's
// 4 x kLanes words out in stream order.  Word i thresholds exactly as the
// scalar loop does (next_float's map, then >= p), so mask and state are the
// scalar stream's bit for bit.
// ---------------------------------------------------------------------------

/// Counter words of blocks c, c + 1, ..., c + kLanes - 1 (64-bit, carrying
/// into the high word and wrapping like the scalar ++counter).
template <typename V>
inline void philox_counters(std::uint64_t c,
                            typename V::Words::Word (&ctr)[4]) {
  using W = typename V::Words;
  constexpr int L = V::kLanes;
  const auto lo = static_cast<std::uint32_t>(c);
  const auto hi = static_cast<std::uint32_t>(c >> 32);
  if (lo <= 0xFFFFFFFFu - (L - 1)) {
    ctr[0] = W::add(W::splat(lo), W::lanes());
    ctr[1] = W::splat(hi);
  } else {
    alignas(64) std::uint32_t los[L];
    alignas(64) std::uint32_t his[L];
    for (int l = 0; l < L; ++l) {
      const std::uint64_t cl = c + static_cast<std::uint64_t>(l);
      los[l] = static_cast<std::uint32_t>(cl);
      his[l] = static_cast<std::uint32_t>(cl >> 32);
    }
    ctr[0] = W::load(los);
    ctr[1] = W::load(his);
  }
  ctr[2] = W::splat(0);
  ctr[3] = W::splat(0);
}

/// B batches of kLanes blocks from `counter` on, each left in stream order.
template <typename V, int B>
inline void philox_batches(const rng::PhiloxState& st,
                           typename V::Words::Word (&w)[B][4]) {
  constexpr int L = V::kLanes;
  for (int b = 0; b < B; ++b) {
    philox_counters<V>(st.counter + static_cast<std::uint64_t>(b * L), w[b]);
  }
  rng::philox_blocks<typename V::Words, B>(
      w, static_cast<std::uint32_t>(st.key),
      static_cast<std::uint32_t>(st.key >> 32));
  for (int b = 0; b < B; ++b) V::Words::interleave4(w[b]);
}

template <typename V>
void dropout_mask(rng::PhiloxState& st, float p, float scale, float* mask,
                  int64_t n) {
  using W = typename V::Words;
  using Word = typename W::Word;
  constexpr int L = V::kLanes;
  constexpr int B = V::kPhiloxBatches;
  const auto keep = [&](std::uint32_t word) {
    return rng::philox_unit_float(word) >= p ? scale : 0.0f;
  };
  const auto store_batch = [&](const Word (&w)[4], float* out) {
    const auto pv = V::broadcast(p);
    const auto sv = V::broadcast(scale);
    for (int m = 0; m < 4; ++m) {
      V::store(out + m * L, V::keep_ge(W::unit_float(w[m]), pv, sv));
    }
  };
  int64_t i = 0;
  for (; i < n && st.buffer_pos < 4; ++i) {
    mask[i] = keep(st.buffer[st.buffer_pos++]);
  }
  if (i == n) return;
  // Every batch but the last goes straight to `mask`; the last keeps its
  // words, since its final block becomes the state's buffer.
  int64_t blocks = (n - i + 3) / 4;
  for (; blocks > B * L; blocks -= B * L, i += 4 * B * L) {
    Word w[B][4];
    philox_batches<V, B>(st, w);
    for (int b = 0; b < B; ++b) store_batch(w[b], mask + i + b * 4 * L);
    st.counter += B * L;
  }
  for (; blocks > L; blocks -= L, i += 4 * L) {
    Word w[1][4];
    philox_batches<V, 1>(st, w);
    store_batch(w[0], mask + i);
    st.counter += L;
  }
  Word w[1][4];
  philox_batches<V, 1>(st, w);
  alignas(64) std::uint32_t words[4 * L];
  for (int m = 0; m < 4; ++m) W::store(words + m * L, w[0][m]);
  const int64_t rest = n - i;
  for (int64_t j = 0; j < rest; ++j) mask[i + j] = keep(words[j]);
  const int64_t last = 4 * (blocks - 1);
  for (int k = 0; k < 4; ++k) st.buffer[k] = words[last + k];
  st.buffer_pos = static_cast<std::uint32_t>(rest - last);
  st.counter += static_cast<std::uint64_t>(blocks);
}

// ---------------------------------------------------------------------------
// Elementwise maps: one lane = one index, same per-element expression as
// the scalar loops they replace.
// ---------------------------------------------------------------------------

// Runs body(i, m) over [0, n) in L-wide blocks; m < L only on the tail.
template <typename V, typename Body>
inline void foreach_block(int64_t n, const Body& body) {
  constexpr int64_t L = V::kLanes;
  int64_t i = 0;
  for (; i + L <= n; i += L) body(i, static_cast<int>(L));
  if (i < n) body(i, static_cast<int>(n - i));
}

template <typename V>
void relu_fwd(const float* x, float* out, int64_t n) {
  constexpr int L = V::kLanes;
  foreach_block<V>(n, [&](int64_t i, int m) {
    if (m == L) {
      const auto v = V::load(x + i);
      V::store(out + i, V::keep_gt_zero(v, v));
    } else {
      const auto v = V::maskload(x + i, m);
      V::maskstore(out + i, m, V::keep_gt_zero(v, v));
    }
  });
}

template <typename V>
void relu_bwd(const float* x, const float* g, float* gin, int64_t n) {
  constexpr int L = V::kLanes;
  foreach_block<V>(n, [&](int64_t i, int m) {
    if (m == L) {
      V::store(gin + i, V::keep_gt_zero(V::load(x + i), V::load(g + i)));
    } else {
      V::maskstore(gin + i, m,
                   V::keep_gt_zero(V::maskload(x + i, m),
                                   V::maskload(g + i, m)));
    }
  });
}

template <typename V>
void sigmoid_bwd(const float* s, const float* g, float* gin, int64_t n) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const Reg one = V::broadcast(1.0f);
  foreach_block<V>(n, [&](int64_t i, int m) {
    const Reg sv = m == L ? V::load(s + i) : V::maskload(s + i, m);
    const Reg gv = m == L ? V::load(g + i) : V::maskload(g + i, m);
    // grad_out * s * (1 - s), associated left-to-right like the scalar code
    const Reg r = V::mul(V::mul(gv, sv), V::sub(one, sv));
    if (m == L) {
      V::store(gin + i, r);
    } else {
      V::maskstore(gin + i, m, r);
    }
  });
}

template <typename V>
void add_scalar(float* out, float c, int64_t n) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const Reg cv = V::broadcast(c);
  foreach_block<V>(n, [&](int64_t i, int m) {
    if (m == L) {
      V::store(out + i, V::add(V::load(out + i), cv));
    } else {
      V::maskstore(out + i, m, V::add(V::maskload(out + i, m), cv));
    }
  });
}

template <typename V>
void add_vec(float* out, const float* add, int64_t n) {
  constexpr int L = V::kLanes;
  foreach_block<V>(n, [&](int64_t i, int m) {
    if (m == L) {
      V::store(out + i, V::add(V::load(out + i), V::load(add + i)));
    } else {
      V::maskstore(out + i, m,
                   V::add(V::maskload(out + i, m), V::maskload(add + i, m)));
    }
  });
}

template <typename V>
void div_scalar(float* out, float c, int64_t n) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const Reg cv = V::broadcast(c);
  foreach_block<V>(n, [&](int64_t i, int m) {
    if (m == L) {
      V::store(out + i, V::div(V::load(out + i), cv));
    } else {
      V::maskstore(out + i, m, V::div(V::maskload(out + i, m), cv));
    }
  });
}

template <typename V>
void mul_vec(const float* a, const float* b, float* out, int64_t n) {
  foreach_block<V>(n, [&](int64_t i, int m) {
    store_m<V>(out + i, m, V::mul(load_m<V>(a + i, m), load_m<V>(b + i, m)));
  });
}

template <typename V>
void gelu_bwd(const float* x, const float* t, const float* g, float* gin,
              int64_t n) {
  using Reg = typename V::Reg;
  const Reg c = V::broadcast(kGeluC);
  const Reg a3 = V::broadcast(3.0f * kGeluA);
  const Reg one = V::broadcast(1.0f);
  const Reg half = V::broadcast(0.5f);
  foreach_block<V>(n, [&](int64_t i, int m) {
    const Reg xv = load_m<V>(x + i, m);
    const Reg tv = load_m<V>(t + i, m);
    // du = C * (1 + 3A * x * x); d = 0.5 * (1 + t) + 0.5 * x * (1 - t * t)
    // * du, each product associated left-to-right like the scalar loop.
    const Reg du = V::mul(c, V::add(one, V::mul(V::mul(a3, xv), xv)));
    const Reg d = V::add(
        V::mul(half, V::add(one, tv)),
        V::mul(V::mul(V::mul(half, xv), V::sub(one, V::mul(tv, tv))), du));
    store_m<V>(gin + i, m, V::mul(load_m<V>(g + i, m), d));
  });
}

template <typename V>
void adam_update(const AdamArgs& args, const float* grad, float* mom,
                 float* var, float* value, int64_t n) {
  using Reg = typename V::Reg;
  const Reg b1 = V::broadcast(args.beta1);
  const Reg b2 = V::broadcast(args.beta2);
  const Reg omb1 = V::broadcast(1.0f - args.beta1);
  const Reg omb2 = V::broadcast(1.0f - args.beta2);
  const Reg bc1 = V::broadcast(args.bc1);
  const Reg bc2 = V::broadcast(args.bc2);
  const Reg lr = V::broadcast(args.lr);
  const Reg eps = V::broadcast(args.eps);
  const bool decay = args.weight_decay != 0.0f;
  const Reg lr_wd = V::broadcast(args.lr * args.weight_decay);
  foreach_block<V>(n, [&](int64_t i, int m) {
    const Reg g = load_m<V>(grad + i, m);
    const Reg mv = V::add(V::mul(b1, load_m<V>(mom + i, m)), V::mul(omb1, g));
    const Reg vv = V::add(V::mul(b2, load_m<V>(var + i, m)),
                          V::mul(V::mul(omb2, g), g));
    store_m<V>(mom + i, m, mv);
    store_m<V>(var + i, m, vv);
    const Reg mhat = V::div(mv, bc1);
    const Reg vhat = V::div(vv, bc2);
    Reg update = V::div(V::mul(lr, mhat), V::add(V::sqrt(vhat), eps));
    const Reg p = load_m<V>(value + i, m);
    if (decay) update = V::add(update, V::mul(lr_wd, p));
    store_m<V>(value + i, m, V::sub(p, update));
  });
}

template <typename V>
void sgd_update(const SgdArgs& args, const float* grad, float* mom,
                float* value, int64_t n) {
  using Reg = typename V::Reg;
  const Reg lr = V::broadcast(args.lr);
  const Reg mu = V::broadcast(args.momentum);
  const Reg wd = V::broadcast(args.weight_decay);
  const bool decay = args.weight_decay != 0.0f;
  const bool momentum = args.momentum != 0.0f;
  foreach_block<V>(n, [&](int64_t i, int m) {
    const Reg p = load_m<V>(value + i, m);
    Reg g = load_m<V>(grad + i, m);
    if (decay) g = V::add(g, V::mul(wd, p));
    if (momentum) {
      g = V::add(V::mul(mu, load_m<V>(mom + i, m)), g);
      store_m<V>(mom + i, m, g);
    }
    store_m<V>(value + i, m, V::sub(p, V::mul(lr, g)));
  });
}

template <typename V>
void norm_affine_vec(const float* x, const float* gamma, const float* beta,
                     float mean, float inv_std, float* xhat, float* out,
                     int64_t n) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const Reg mv = V::broadcast(mean);
  const Reg sv = V::broadcast(inv_std);
  foreach_block<V>(n, [&](int64_t i, int m) {
    const bool full = m == L;
    const Reg xv = full ? V::load(x + i) : V::maskload(x + i, m);
    const Reg xh = V::mul(V::sub(xv, mv), sv);
    const Reg gv = full ? V::load(gamma + i) : V::maskload(gamma + i, m);
    const Reg bv = full ? V::load(beta + i) : V::maskload(beta + i, m);
    const Reg o = V::add(V::mul(gv, xh), bv);
    if (full) {
      V::store(xhat + i, xh);
      V::store(out + i, o);
    } else {
      V::maskstore(xhat + i, m, xh);
      V::maskstore(out + i, m, o);
    }
  });
}

template <typename V>
void norm_affine_scalar(const float* x, float gamma, float beta, float mean,
                        float inv_std, float* xhat, float* out, int64_t n) {
  using Reg = typename V::Reg;
  constexpr int L = V::kLanes;
  const Reg mv = V::broadcast(mean);
  const Reg sv = V::broadcast(inv_std);
  const Reg gv = V::broadcast(gamma);
  const Reg bv = V::broadcast(beta);
  foreach_block<V>(n, [&](int64_t i, int m) {
    const bool full = m == L;
    const Reg xv = full ? V::load(x + i) : V::maskload(x + i, m);
    const Reg xh = V::mul(V::sub(xv, mv), sv);
    const Reg o = V::add(V::mul(gv, xh), bv);
    if (full) {
      V::store(xhat + i, xh);
      V::store(out + i, o);
    } else {
      V::maskstore(xhat + i, m, xh);
      V::maskstore(out + i, m, o);
    }
  });
}

/// Populate a SimdOps table with V's instantiations.
template <typename V>
SimdOps make_simd_ops(SimdBackend kind) {
  SimdOps ops;
  ops.kind = kind;
  ops.gemm_panel = &gemm_panel<V>;
  ops.gemm_tile_cols = kPanelTileVecs * V::kLanes;
  ops.gemm_panel_packed = &gemm_panel_packed<V>;
  ops.gemm_rows = &gemm_rows<V>;
  ops.transpose = &transpose<V>;
  ops.im2col_same = &im2col_same<V>;
  ops.col2im_same = &col2im_same<V>;
  ops.kahan_panel = &kahan_panel<V>;
  ops.reduce_batch = &reduce_batch<V>;
  ops.conv_row = &conv_row<V>;
  ops.dropout_mask = &dropout_mask<V>;
  ops.relu_fwd = &relu_fwd<V>;
  ops.relu_bwd = &relu_bwd<V>;
  ops.sigmoid_bwd = &sigmoid_bwd<V>;
  ops.add_scalar = &add_scalar<V>;
  ops.add_vec = &add_vec<V>;
  ops.div_scalar = &div_scalar<V>;
  ops.mul_vec = &mul_vec<V>;
  ops.gelu_bwd = &gelu_bwd<V>;
  ops.adam_update = &adam_update<V>;
  ops.sgd_update = &sgd_update<V>;
  ops.norm_affine_vec = &norm_affine_vec<V>;
  ops.norm_affine_scalar = &norm_affine_scalar<V>;
  return ops;
}

}  // namespace easyscale::kernels::simd_impl
