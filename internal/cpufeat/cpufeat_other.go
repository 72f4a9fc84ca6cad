//go:build !amd64

package cpufeat

// Only amd64 has AVX-512; every kernel falls back to Go elsewhere.
const AVX512F, AVX512DQ = false, false
