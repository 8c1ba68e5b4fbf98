#include "simd/simd.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hk {
namespace {

bool HostHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__AVX2__)
  // The whole translation unit is already compiled for AVX2 hosts.
  return true;
#else
  return __builtin_cpu_supports("avx2") != 0;
#endif
#else
  return false;
#endif
}

SimdKernel BestAvailable() { return HostHasAvx2() ? SimdKernel::kAvx2 : SimdKernel::kScalar; }

}  // namespace

bool SimdKernelAvailable(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar:
      return true;
    case SimdKernel::kAvx2:
      return HostHasAvx2();
  }
  return false;
}

SimdKernel ResolveSimdKernel(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return SimdKernel::kScalar;
    case SimdMode::kAvx2:
      if (!SimdKernelAvailable(SimdKernel::kAvx2)) {
        throw std::invalid_argument(
            "simd=avx2 requested but this host does not support AVX2 "
            "(use simd=auto for runtime dispatch)");
      }
      return SimdKernel::kAvx2;
    case SimdMode::kAuto:
      break;
  }
  // Auto resolution honours HK_SIMD when it names a usable kernel; any
  // other value falls through to hardware detection so a stale or
  // misspelled override degrades to the default instead of failing.
  if (const char* env = std::getenv("HK_SIMD"); env != nullptr) {
    SimdMode forced;
    if (ParseSimdMode(env, &forced) && forced != SimdMode::kAuto) {
      const SimdKernel kernel =
          forced == SimdMode::kScalar ? SimdKernel::kScalar : SimdKernel::kAvx2;
      if (SimdKernelAvailable(kernel)) {
        return kernel;
      }
    }
  }
  return BestAvailable();
}

const char* SimdKernelName(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar:
      return "scalar";
    case SimdKernel::kAvx2:
      return "avx2";
  }
  return "?";
}

const char* SimdModeToken(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "?";
}

bool ParseSimdMode(const char* token, SimdMode* out) {
  if (std::strcmp(token, "auto") == 0) {
    *out = SimdMode::kAuto;
  } else if (std::strcmp(token, "scalar") == 0) {
    *out = SimdMode::kScalar;
  } else if (std::strcmp(token, "avx2") == 0) {
    *out = SimdMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace hk
