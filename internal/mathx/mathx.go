// Package mathx provides small integer-math helpers used throughout the
// partalloc codebase: power-of-two predicates, integer logarithms, and
// ceiling division. All sizes in the allocation model (machine sizes,
// submachine sizes, task sizes) are powers of two, so these helpers are on
// nearly every hot path and are written branch-light.
package mathx

import "math/bits"

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Log2 returns the base-2 logarithm of n.
// It panics if n is not a positive power of two.
func Log2(n int) int {
	if !IsPow2(n) {
		panic("mathx: Log2 of non-power-of-two")
	}
	return bits.TrailingZeros(uint(n))
}

// Log2Floor returns floor(log2(n)) for n >= 1. It panics if n < 1.
func Log2Floor(n int) int {
	if n < 1 {
		panic("mathx: Log2Floor of non-positive value")
	}
	return bits.Len(uint(n)) - 1
}

// Log2Ceil returns ceil(log2(n)) for n >= 1. It panics if n < 1.
func Log2Ceil(n int) int {
	if n < 1 {
		panic("mathx: Log2Ceil of non-positive value")
	}
	if IsPow2(n) {
		return Log2(n)
	}
	return bits.Len(uint(n))
}

// CeilPow2 returns the smallest power of two >= n, for n >= 1.
func CeilPow2(n int) int {
	return 1 << Log2Ceil(n)
}

// CeilDiv returns ceil(a/b) for b > 0 and a >= 0.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("mathx: CeilDiv by non-positive divisor")
	}
	if a < 0 {
		panic("mathx: CeilDiv of negative dividend")
	}
	return (a + b - 1) / b
}

// CeilDiv64 is CeilDiv over int64 operands.
func CeilDiv64(a, b int64) int64 {
	if b <= 0 {
		panic("mathx: CeilDiv64 by non-positive divisor")
	}
	if a < 0 {
		panic("mathx: CeilDiv64 of negative dividend")
	}
	return (a + b - 1) / b
}

// HalfCeil returns ceil(n/2) without overflow for n >= 0.
func HalfCeil(n int) int {
	return (n + 1) / 2
}

// GreedyBound returns the paper's Theorem 4.1 factor ceil((log2 N + 1)/2)
// for an N-PE machine; N must be a power of two.
func GreedyBound(n int) int {
	return HalfCeil(Log2(n) + 1)
}

// DetUpperFactor returns the paper's Theorem 4.2 factor
// min{d+1, ceil((log2 N + 1)/2)} for reallocation parameter d on an N-PE
// machine. A negative d encodes d = infinity (never reallocate).
func DetUpperFactor(n, d int) int {
	g := GreedyBound(n)
	if d < 0 || d+1 >= g {
		return g
	}
	return d + 1
}

// DetLowerFactor returns the paper's Theorem 4.3 factor
// ceil((min{d, log2 N} + 1)/2). A negative d encodes d = infinity.
func DetLowerFactor(n, d int) int {
	p := Log2(n)
	if d >= 0 && d < p {
		p = d
	}
	return HalfCeil(p + 1)
}
