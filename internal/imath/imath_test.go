package imath

import "testing"

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 3, 4}, {9, 3, 3}, {1, 1, 1}, {0, 5, 0},
		{1, 0, 0}, {5, -1, 0}, // non-positive divisor convention
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ n, want int64 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
