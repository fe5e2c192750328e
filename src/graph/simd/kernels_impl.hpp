#pragma once

#include "graph/simd/simd_kernels.hpp"

/// Internal linkage between the per-tier translation units and the
/// dispatcher. The AVX2 provider returns nullptr when the build cannot
/// produce that tier, so dispatch.cpp can fall back without preprocessor
/// conditionals of its own.
namespace pimsched::simd::detail {

[[nodiscard]] const Kernels& scalarKernels();
[[nodiscard]] const Kernels* avx2Kernels();  ///< nullptr without AVX2 codegen

}  // namespace pimsched::simd::detail
