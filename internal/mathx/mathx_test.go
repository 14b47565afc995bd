package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{
		-4: false, -1: false, 0: false,
		1: true, 2: true, 3: false, 4: true, 5: false,
		6: false, 7: false, 8: true, 1024: true, 1023: false, 1025: false,
		1 << 30: true, (1 << 30) + 1: false,
	}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	for e := 0; e < 31; e++ {
		if got := Log2(1 << e); got != e {
			t.Errorf("Log2(2^%d) = %d", e, got)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", n)
				}
			}()
			Log2(n)
		}()
	}
}

func TestLog2FloorCeil(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		f := Log2Floor(n)
		c := Log2Ceil(n)
		wantF := int(math.Floor(math.Log2(float64(n))))
		wantC := int(math.Ceil(math.Log2(float64(n))))
		if f != wantF {
			t.Fatalf("Log2Floor(%d) = %d, want %d", n, f, wantF)
		}
		if c != wantC {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", n, c, wantC)
		}
	}
}

func TestCeilFloorPow2(t *testing.T) {
	for n := 1; n <= 1025; n++ {
		cp := CeilPow2(n)
		if !IsPow2(cp) || cp < n || cp/2 >= n && n > 1 && cp != n {
			t.Fatalf("CeilPow2(%d) = %d invalid", n, cp)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2},
		{7, 4, 2}, {8, 4, 2}, {9, 4, 3}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CeilDiv64(int64(c.a), int64(c.b)); got != int64(c.want) {
			t.Errorf("CeilDiv64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a uint16, b uint8) bool {
		bb := int(b)%100 + 1
		aa := int(a)
		q := CeilDiv(aa, bb)
		return q*bb >= aa && (q-1)*bb < aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxHalfCeil(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 11: 6} {
		if got := HalfCeil(n); got != want {
			t.Errorf("HalfCeil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestGreedyBound(t *testing.T) {
	// ceil((log N + 1)/2)
	cases := map[int]int{2: 1, 4: 2, 8: 2, 16: 3, 32: 3, 64: 4, 1024: 6, 4096: 7}
	for n, want := range cases {
		if got := GreedyBound(n); got != want {
			t.Errorf("GreedyBound(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDetUpperFactor(t *testing.T) {
	// min{d+1, ceil((log N+1)/2)}
	if got := DetUpperFactor(1024, 0); got != 1 {
		t.Errorf("DetUpperFactor(1024,0) = %d, want 1", got)
	}
	if got := DetUpperFactor(1024, 3); got != 4 {
		t.Errorf("DetUpperFactor(1024,3) = %d, want 4", got)
	}
	if got := DetUpperFactor(1024, 100); got != 6 {
		t.Errorf("DetUpperFactor(1024,100) = %d, want 6", got)
	}
	if got := DetUpperFactor(1024, -1); got != 6 {
		t.Errorf("DetUpperFactor(1024,inf) = %d, want 6", got)
	}
}

func TestDetLowerFactor(t *testing.T) {
	// ceil((min{d, log N}+1)/2)
	if got := DetLowerFactor(1024, 0); got != 1 {
		t.Errorf("d=0: %d, want 1", got)
	}
	if got := DetLowerFactor(1024, 3); got != 2 {
		t.Errorf("d=3: %d, want 2", got)
	}
	if got := DetLowerFactor(1024, 100); got != 6 {
		t.Errorf("d=100: %d, want 6 (log N caps)", got)
	}
	if got := DetLowerFactor(1024, -1); got != 6 {
		t.Errorf("d=inf: %d, want 6", got)
	}
}

func TestBoundsConsistency(t *testing.T) {
	// The lower-bound factor never exceeds the upper-bound factor, and they
	// are within a factor of two of each other (the paper's tightness claim).
	for e := 1; e <= 20; e++ {
		n := 1 << e
		for d := -1; d <= 25; d++ {
			lo := DetLowerFactor(n, d)
			hi := DetUpperFactor(n, d)
			if lo > hi {
				t.Fatalf("N=%d d=%d: lower %d > upper %d", n, d, lo, hi)
			}
			if hi > 2*lo {
				t.Fatalf("N=%d d=%d: upper %d > 2*lower %d", n, d, hi, lo)
			}
		}
	}
}
