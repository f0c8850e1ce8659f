//===- Fingerprint.h - Deterministic module fingerprinting ------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content addressing for modules. The canonical form of a module is its
/// printed text (ir/Printer.h): parsing normalizes away whitespace,
/// comments and formatting, and the printer emits functions, blocks,
/// symbols and statements in their defined order with one fixed
/// spelling, so two inputs that parse to the same program have
/// byte-identical canonical text. The fingerprint is the FNV-1a hash of
/// that text — stable across builds and platforms (support/Hash.h), and
/// usable as a report field.
///
/// The canonical text, not the fingerprint, is the identity: consumers
/// keying storage by module (core::ResultCache) store the canonical text
/// and compare it on lookup, so a hash collision can cost a bucket
/// neighbour at most — never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_FINGERPRINT_H
#define SRP_IR_FINGERPRINT_H

#include <cstdint>
#include <string>

namespace srp::ir {

class Module;

/// The canonical textual form of \p M (see file comment). Idempotent:
/// parsing the result and canonicalizing again reproduces it byte for
/// byte — pinned by ResultCacheTest over the fuzz-repro corpus.
std::string canonicalModuleText(const Module &M);

/// FNV-1a64 of canonicalModuleText(M).
uint64_t moduleFingerprint(const Module &M);

} // namespace srp::ir

#endif // SRP_IR_FINGERPRINT_H
