// ISA variants of the NN hot loops. See kernels.h for the per-element
// contracts; this translation unit is compiled with -ffp-contract=off so a
// multiply-add fuses ONLY where an explicit fma/fmaf or _mm*_fmadd is
// written. Every variant is compiled into every binary via per-function
// target attributes and selected at runtime (common/cpu.h).
#include "nn/kernels.h"

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace cati::nn::kern {

namespace {

static_assert(kQOutPad % 16 == 0);

// --- scalar ------------------------------------------------------------------
// "scalar" = no hand-written SIMD; the compiler may still vectorize these
// loops, which is safe because the per-element operations are explicit.

/// The scalar conv and dense kernels over `L` interleaved samples: L = kLane
/// is the scalar lane variant, L = 1 one plain sample (conv1dSample and
/// denseSample) — the same per-element ops either way.
template <int L>
void convScalar(const float* w, const float* bias, const float* x, float* y,
                int inC, int outC, int k, int len) {
  const int pad = k / 2;
  for (int o = 0; o < outC; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inC * k;
    float* yRow = y + static_cast<size_t>(o) * len * L;
    const float b = bias[o];
    for (int i = 0; i < len * L; ++i) yRow[i] = b;
    for (int c = 0; c < inC; ++c) {
      const float* xRow = x + static_cast<size_t>(c) * len * L;
      const float* wk = wRow + static_cast<size_t>(c) * k;
      for (int kk = 0; kk < k; ++kk) {
        const float wv = wk[kk];
        const int shift = kk - pad;
        const int lo = shift < 0 ? -shift : 0;
        const int hi = shift > 0 ? len - shift : len;
        float* yp = yRow + static_cast<size_t>(lo) * L;
        const float* xp = xRow + static_cast<size_t>(lo + shift) * L;
        const int cnt = (hi - lo) * L;
        for (int i = 0; i < cnt; ++i) yp[i] = std::fmaf(wv, xp[i], yp[i]);
      }
    }
  }
}

template <int L>
void denseScalar(const float* w, const float* bias, const float* x, float* y,
                 int inF, int outF) {
  const int head = inF - (inF % 4);
  for (int o = 0; o < outF; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inF;
    float acc[L];
    for (int l = 0; l < L; ++l) acc[l] = bias[o];
    int i = 0;
    for (; i < head; ++i) {
      const float wv = wRow[i];
      const float* xr = x + static_cast<size_t>(i) * L;
      // Two-rounded multiply-then-add (the TU is -ffp-contract=off).
      for (int l = 0; l < L; ++l) acc[l] = acc[l] + wv * xr[l];
    }
    for (; i < inF; ++i) {
      const float wv = wRow[i];
      const float* xr = x + static_cast<size_t>(i) * L;
      for (int l = 0; l < L; ++l) acc[l] = std::fmaf(wv, xr[l], acc[l]);
    }
    float* yRow = y + static_cast<size_t>(o) * L;
    for (int l = 0; l < L; ++l) yRow[l] = acc[l];
  }
}

float absMaxScalar(const float* x, int n) {
  float m = 0.0F;
  for (int i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

int8_t quantizeOne(float v, float invScale) {
  long r = std::lrintf(v * invScale);
  if (r > 127) r = 127;
  if (r < -127) r = -127;
  return static_cast<int8_t>(r);
}

void quantizeScalar(const float* x, int8_t* q, int n, float invScale) {
  for (int i = 0; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

void qgemvScalar(const int8_t* w, const int32_t* /*rowSum*/, const int8_t* x,
                 int32_t* acc, int groups, int outPad) {
  for (int g = 0; g < groups; ++g) {
    const int8_t* xg = x + static_cast<size_t>(g) * kQGroup;
    const int8_t* wg = w + static_cast<size_t>(g) * outPad * kQGroup;
    for (int o = 0; o < outPad; ++o) {
      const int8_t* wo = wg + static_cast<size_t>(o) * kQGroup;
      acc[o] += static_cast<int32_t>(wo[0]) * xg[0] +
                static_cast<int32_t>(wo[1]) * xg[1] +
                static_cast<int32_t>(wo[2]) * xg[2] +
                static_cast<int32_t>(wo[3]) * xg[3];
    }
  }
}

// --- AVX2 + FMA --------------------------------------------------------------

__attribute__((target("avx2,fma"))) void convLaneAvx2(
    const float* w, const float* bias, const float* x, float* y, int inC,
    int outC, int k, int len) {
  const int pad = k / 2;
  for (int o = 0; o < outC; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inC * k;
    float* yRow = y + static_cast<size_t>(o) * len * kLane;
    const __m256 vb = _mm256_set1_ps(bias[o]);
    const int fillN = len * kLane;
    int i = 0;
    for (; i + 8 <= fillN; i += 8) _mm256_storeu_ps(yRow + i, vb);
    for (; i < fillN; ++i) yRow[i] = bias[o];
    for (int c = 0; c < inC; ++c) {
      const float* xRow = x + static_cast<size_t>(c) * len * kLane;
      const float* wk = wRow + static_cast<size_t>(c) * k;
      for (int kk = 0; kk < k; ++kk) {
        const float wv = wk[kk];
        const int shift = kk - pad;
        const int lo = shift < 0 ? -shift : 0;
        const int hi = shift > 0 ? len - shift : len;
        float* yp = yRow + static_cast<size_t>(lo) * kLane;
        const float* xp = xRow + static_cast<size_t>(lo + shift) * kLane;
        const int cnt = (hi - lo) * kLane;
        const __m256 vw = _mm256_set1_ps(wv);
        int j = 0;
        for (; j + 16 <= cnt; j += 16) {
          const __m256 y0 =
              _mm256_fmadd_ps(vw, _mm256_loadu_ps(xp + j),
                              _mm256_loadu_ps(yp + j));
          const __m256 y1 =
              _mm256_fmadd_ps(vw, _mm256_loadu_ps(xp + j + 8),
                              _mm256_loadu_ps(yp + j + 8));
          _mm256_storeu_ps(yp + j, y0);
          _mm256_storeu_ps(yp + j + 8, y1);
        }
        for (; j + 8 <= cnt; j += 8) {
          _mm256_storeu_ps(
              yp + j, _mm256_fmadd_ps(vw, _mm256_loadu_ps(xp + j),
                                      _mm256_loadu_ps(yp + j)));
        }
        for (; j < cnt; ++j) yp[j] = std::fmaf(wv, xp[j], yp[j]);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void denseLaneAvx2(
    const float* w, const float* bias, const float* x, float* y, int inF,
    int outF) {
  static_assert(kLane == 8, "denseLaneAvx2 assumes one __m256 per lane group");
  const int head = inF - (inF % 4);
  int o = 0;
  for (; o + 2 <= outF; o += 2) {
    const float* w0 = w + static_cast<size_t>(o) * inF;
    const float* w1 = w0 + inF;
    __m256 a0 = _mm256_set1_ps(bias[o]);
    __m256 a1 = _mm256_set1_ps(bias[o + 1]);
    int i = 0;
    for (; i < head; ++i) {
      const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(w0[i]), xv));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_set1_ps(w1[i]), xv));
    }
    for (; i < inF; ++i) {
      const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(w0[i]), xv, a0);
      a1 = _mm256_fmadd_ps(_mm256_set1_ps(w1[i]), xv, a1);
    }
    _mm256_storeu_ps(y + static_cast<size_t>(o) * kLane, a0);
    _mm256_storeu_ps(y + static_cast<size_t>(o + 1) * kLane, a1);
  }
  for (; o < outF; ++o) {
    const float* w0 = w + static_cast<size_t>(o) * inF;
    __m256 a0 = _mm256_set1_ps(bias[o]);
    int i = 0;
    for (; i < head; ++i) {
      const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(w0[i]), xv));
    }
    for (; i < inF; ++i) {
      const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(w0[i]), xv, a0);
    }
    _mm256_storeu_ps(y + static_cast<size_t>(o) * kLane, a0);
  }
}

__attribute__((target("avx2"))) float absMaxAvx2(const float* x, int n) {
  const __m256 signMask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vm = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_and_ps(_mm256_loadu_ps(x + i), signMask));
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vm),
                         _mm256_extractf128_ps(vm, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  float m = _mm_cvtss_f32(m4);
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx2"))) void quantizeAvx2(const float* x, int8_t* q,
                                                  int n, float invScale) {
  const __m256 vs = _mm256_set1_ps(invScale);
  const __m256i vmin = _mm256_set1_epi32(-127);
  const __m256i vmax = _mm256_set1_epi32(127);
  // Byte 0 of each dword, per 128-bit lane.
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vi =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
    vi = _mm256_min_epi32(_mm256_max_epi32(vi, vmin), vmax);
    const __m256i b = _mm256_shuffle_epi8(vi, pick);
    const __m128i lo = _mm256_castsi256_si128(b);
    const __m128i hi = _mm256_extracti128_si256(b, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm_unpacklo_epi32(lo, hi));
  }
  for (; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

__attribute__((target("avx2"))) void qgemvAvx2(const int8_t* w,
                                               const int32_t* /*rowSum*/,
                                               const int8_t* x, int32_t* acc,
                                               int groups, int outPad) {
  // hadd(a, b) leaves the 8 dots in order [0,1,4,5 | 2,3,6,7]; accumulate
  // in that shuffled order (exact integers, order-free) and unpermute once.
  const __m256i unshuf = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  for (int ob = 0; ob < outPad; ob += 8) {
    __m256i vdot = _mm256_setzero_si256();
    for (int g = 0; g < groups; ++g) {
      int32_t xw;
      std::memcpy(&xw, x + static_cast<size_t>(g) * kQGroup, 4);
      const __m256i xb = _mm256_broadcastq_epi64(
          _mm_cvtepi8_epi16(_mm_cvtsi32_si128(xw)));
      const __m256i wb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          w + (static_cast<size_t>(g) * outPad + ob) * kQGroup));
      const __m256i pa =
          _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(wb)),
                            xb);
      const __m256i pb = _mm256_madd_epi16(
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wb, 1)), xb);
      vdot = _mm256_add_epi32(vdot, _mm256_hadd_epi32(pa, pb));
    }
    vdot = _mm256_permutevar8x32_epi32(vdot, unshuf);
    __m256i* ap = reinterpret_cast<__m256i*>(acc + ob);
    _mm256_storeu_si256(ap,
                        _mm256_add_epi32(_mm256_loadu_si256(ap), vdot));
  }
}

// --- AVX-512 (F+BW+DQ+VL+VNNI, plus FMA for the 256-bit tails) -------------

__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,fma"))) void
convLaneAvx512(const float* w, const float* bias, const float* x, float* y,
               int inC, int outC, int k, int len) {
  const int pad = k / 2;
  for (int o = 0; o < outC; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inC * k;
    float* yRow = y + static_cast<size_t>(o) * len * kLane;
    const __m512 vb = _mm512_set1_ps(bias[o]);
    const int fillN = len * kLane;
    int i = 0;
    for (; i + 16 <= fillN; i += 16) _mm512_storeu_ps(yRow + i, vb);
    for (; i < fillN; ++i) yRow[i] = bias[o];
    for (int c = 0; c < inC; ++c) {
      const float* xRow = x + static_cast<size_t>(c) * len * kLane;
      const float* wk = wRow + static_cast<size_t>(c) * k;
      for (int kk = 0; kk < k; ++kk) {
        const float wv = wk[kk];
        const int shift = kk - pad;
        const int lo = shift < 0 ? -shift : 0;
        const int hi = shift > 0 ? len - shift : len;
        float* yp = yRow + static_cast<size_t>(lo) * kLane;
        const float* xp = xRow + static_cast<size_t>(lo + shift) * kLane;
        const int cnt = (hi - lo) * kLane;
        const __m512 vw = _mm512_set1_ps(wv);
        int j = 0;
        for (; j + 32 <= cnt; j += 32) {
          const __m512 y0 =
              _mm512_fmadd_ps(vw, _mm512_loadu_ps(xp + j),
                              _mm512_loadu_ps(yp + j));
          const __m512 y1 =
              _mm512_fmadd_ps(vw, _mm512_loadu_ps(xp + j + 16),
                              _mm512_loadu_ps(yp + j + 16));
          _mm512_storeu_ps(yp + j, y0);
          _mm512_storeu_ps(yp + j + 16, y1);
        }
        for (; j + 16 <= cnt; j += 16) {
          _mm512_storeu_ps(
              yp + j, _mm512_fmadd_ps(vw, _mm512_loadu_ps(xp + j),
                                      _mm512_loadu_ps(yp + j)));
        }
        if (j + 8 <= cnt) {
          const __m256 vw8 = _mm256_set1_ps(wv);
          _mm256_storeu_ps(
              yp + j, _mm256_fmadd_ps(vw8, _mm256_loadu_ps(xp + j),
                                      _mm256_loadu_ps(yp + j)));
          j += 8;
        }
        for (; j < cnt; ++j) yp[j] = std::fmaf(wv, xp[j], yp[j]);
      }
    }
  }
}

__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,fma"))) float
absMaxAvx512(const float* x, int n) {
  const __m512 signMask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vm = _mm512_setzero_ps();
  int i = 0;
  // GCC's unmasked AVX-512 forms (and _mm512_reduce_max_ps) pass an
  // uninitialized pass-through register and trip -Wmaybe-uninitialized; the
  // all-ones _maskz_ forms compute the same lanes from a zeroed source.
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_maskz_max_ps(0xFFFF, vm,
                             _mm512_and_ps(_mm512_loadu_ps(x + i), signMask));
  }
  // The reduce_max_ps shuffle tree, spelled out in the same order.
  const __m256 v8 = _mm256_max_ps(_mm512_extractf32x8_ps(vm, 1),
                                  _mm512_extractf32x8_ps(vm, 0));
  const __m128 v4 = _mm_max_ps(_mm256_extractf128_ps(v8, 1),
                               _mm256_castps256_ps128(v8));
  const __m128 v2 =
      _mm_max_ps(v4, _mm_shuffle_ps(v4, v4, _MM_SHUFFLE(1, 0, 3, 2)));
  float m = _mm_cvtss_f32(
      _mm_max_ps(v2, _mm_shuffle_ps(v2, v2, _MM_SHUFFLE(0, 1, 0, 1))));
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,fma"))) void
quantizeAvx512(const float* x, int8_t* q, int n, float invScale) {
  const __m512 vs = _mm512_set1_ps(invScale);
  const __m512i vmin = _mm512_set1_epi32(-127);
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i vi = _mm512_maskz_cvtps_epi32(
        0xFFFF, _mm512_mul_ps(_mm512_loadu_ps(x + i), vs));
    // cvtsepi32_epi8 saturates at [-128,127]; only the -127 floor needs help.
    vi = _mm512_maskz_max_epi32(0xFFFF, vi, vmin);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm512_maskz_cvtsepi32_epi8(0xFFFF, vi));
  }
  for (; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

__attribute__((
    target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,fma"))) void
qgemvAvx512(const int8_t* w, const int32_t* rowSum, const int8_t* x,
            int32_t* acc, int groups, int outPad) {
  // vpdpbusd wants unsigned × signed: bias the activations by +128
  // (byte XOR 0x80) and subtract the exact 128 * rowSum correction.
  for (int ob = 0; ob < outPad; ob += 16) {
    __m512i vdot = _mm512_setzero_si512();
    for (int g = 0; g < groups; ++g) {
      int32_t xw;
      std::memcpy(&xw, x + static_cast<size_t>(g) * kQGroup, 4);
      const __m512i xb =
          _mm512_set1_epi32(xw ^ static_cast<int32_t>(0x80808080U));
      const __m512i wb = _mm512_loadu_si512(
          w + (static_cast<size_t>(g) * outPad + ob) * kQGroup);
      vdot = _mm512_dpbusd_epi32(vdot, xb, wb);
    }
    const __m512i rs = _mm512_loadu_si512(rowSum + ob);
    vdot = _mm512_sub_epi32(vdot, _mm512_maskz_slli_epi32(0xFFFF, rs, 7));
    const __m512i va = _mm512_loadu_si512(acc + ob);
    _mm512_storeu_si512(acc + ob, _mm512_add_epi32(va, vdot));
  }
}

}  // namespace

void conv1dSample(const float* w, const float* bias, const float* x, float* y,
                  int inC, int outC, int k, int len) {
  convScalar<1>(w, bias, x, y, inC, outC, k, len);
}

void denseSample(const float* w, const float* bias, const float* x, float* y,
                 int inF, int outF) {
  denseScalar<1>(w, bias, x, y, inF, outF);
}

const KernelSet& kernelsFor(cpu::Isa isa) {
  static const KernelSet sets[cpu::kNumIsas] = {
      {cpu::Isa::kScalar, convScalar<kLane>, denseScalar<kLane>,
       absMaxScalar, quantizeScalar, qgemvScalar},
      {cpu::Isa::kAvx2, convLaneAvx2, denseLaneAvx2, absMaxAvx2, quantizeAvx2,
       qgemvAvx2},
      // Dense lane groups are 8 floats wide, so the AVX2 variant is already
      // full-width — AVX-512 reuses it.
      {cpu::Isa::kAvx512, convLaneAvx512, denseLaneAvx2, absMaxAvx512,
       quantizeAvx512, qgemvAvx512},
  };
  return sets[static_cast<int>(isa)];
}

const KernelSet& kernels() { return kernelsFor(cpu::active()); }

}  // namespace cati::nn::kern
