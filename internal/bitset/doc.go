// Package bitset provides a dense, fixed-size bit vector used as the
// storage substrate for every Bloom-filter variant in this repository.
//
// The type is deliberately minimal and allocation-conscious: a filter of m
// bits occupies ⌈m/64⌉ machine words. All index arguments are uint64 so
// that reduced hash digests can be used directly; indexes are interpreted
// modulo nothing — callers must reduce before calling (the Bloom layer owns
// the "mod m" step, mirroring the paper's notation where digests are
// reduced once).
//
// Set and Clear report whether they changed the bit, which is what lets the
// attack layer account exactly how many fresh bits a forged item
// contributes (condition 6 of the paper) and lets the service layer track
// Hamming weight incrementally instead of re-scanning the vector.
//
// The set owns its words and the contract for reading them with no lock:
// TestAtomic, and TestProgressions, which tests eight keys' k-index
// progressions (hashes.Progression) at once — on amd64 with AVX-512F in
// one assembly kernel (probe8_amd64.s) that gathers each round's eight
// words under a full mask, elsewhere and in -race builds in a Go loop with
// atomic loads. internal/cpufeat decides which. Serialized writers publish
// with SetAtomic and Reset, or set a whole progression with SetProgression,
// which on amd64 outside -race builds is a scalar assembly kernel
// (setprog_amd64.s) storing changed words with plain aligned MOVQs — its
// doc gives why that publishes as SetAtomic's fenced stores do — and
// elsewhere a Go loop over SetAtomic. Build tags alone choose it.
package bitset
