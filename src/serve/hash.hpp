// Content fingerprints for the prepared-pipeline cache.
//
// The cache key is matrix CONTENT hash × canonical SolverConfig string:
// two requests hit the same entry exactly when they would build the same
// pipeline, regardless of whether the matrix arrived as a catalog spec,
// an inline CSR payload, or a fingerprint reference.  The hash takes one
// 64-bit word per step — each index widened to u64, each value's bit
// pattern — mixes the word with the splitmix64 finalizer, and folds it
// into the state by xor and multiply.  Mixing first matters: a plain
// xor-multiply fold over raw words lets two flipped top bits (two sign
// flips) cancel.  This is a cache key and a resend-shortcut token, not a
// cryptographic commitment (a client that must not trust the transport
// should send the matrix inline).
#pragma once

#include <cstdint>
#include <string>

#include "color/coloring.hpp"
#include "la/csr_matrix.hpp"

namespace mstep::serve {

/// Fingerprint of a CSR matrix: dimensions, row pointers, column indices,
/// and the exact value bit patterns.  Equal hash <=> (with the usual
/// 64-bit-collision caveat) equal operator, so a cache hit serves results
/// bitwise identical to a direct solve on the same matrix.
[[nodiscard]] std::uint64_t matrix_fingerprint(const la::CsrMatrix& m);

/// Fingerprint of the whole pipeline INPUT: the matrix plus its
/// closed-form colour classes when the problem ships them (empty classes
/// fold to matrix_fingerprint exactly).  This is the hash the cache keys
/// on and the one solve replies advertise — the same matrix with and
/// without catalog classes builds different orderings, so it must hash
/// differently or a fingerprint request could be served by the wrong
/// pipeline.
[[nodiscard]] std::uint64_t pipeline_fingerprint(
    const la::CsrMatrix& m, const color::ColorClasses& classes);

/// Fingerprints render as fixed-width lowercase hex on every surface
/// (responses are binary, but logs, reports, and the CLI use this form).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);
/// Parse the hex form (with or without "0x"); throws std::invalid_argument.
[[nodiscard]] std::uint64_t fingerprint_from_hex(const std::string& text);

}  // namespace mstep::serve
