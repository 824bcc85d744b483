// Package imath provides the small integer helpers shared by the workload
// generators, the graph subsystem and the experiment harness.  They were
// historically copied into each package; this is the single shared set.
package imath

// CeilDiv returns ceil(a/b) for positive b, and 0 when b <= 0.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func Log2Ceil(n int64) int64 {
	if n <= 1 {
		return 0
	}
	var l int64
	v := int64(1)
	for v < n {
		v <<= 1
		l++
	}
	return l
}
