package subcube

import (
	"math/bits"
	"math/rand"
	"testing"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
)

func TestSubcubeBasics(t *testing.T) {
	// In a 3-cube, mask 0b100 value 0b100 = upper half: PEs 4..7.
	sc := Subcube{Mask: 0b100, Value: 0b100}
	if sc.Size(3) != 4 {
		t.Fatalf("size %d", sc.Size(3))
	}
	want := []int{4, 5, 6, 7}
	got := sc.PEs(3)
	if len(got) != len(want) {
		t.Fatalf("PEs %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PEs %v, want %v", got, want)
		}
		if !sc.Contains(want[i]) {
			t.Fatalf("Contains(%d) false", want[i])
		}
	}
	if sc.Contains(3) {
		t.Fatal("Contains(3) true")
	}
}

// Every strategy on an empty cube must find a free subcube of every size,
// and the found region must actually be a subcube of the right size.
func TestFindOnEmptyCube(t *testing.T) {
	for dim := 1; dim <= 8; dim++ {
		c := NewCube(dim)
		for size := 1; size <= c.N(); size *= 2 {
			for _, st := range Strategies() {
				sc, ok := c.Find(size, st)
				if !ok {
					t.Fatalf("dim=%d size=%d %v: no subcube on empty cube", dim, size, st)
				}
				checkIsSubcube(t, sc, size, dim)
			}
		}
	}
}

// checkIsSubcube verifies the PE set is xor-closed with the right span.
func checkIsSubcube(t *testing.T, sc Subcube, size, dim int) {
	t.Helper()
	pes := sc.PEs(dim)
	if len(pes) != size {
		t.Fatalf("%v spans %d PEs, want %d", sc, len(pes), size)
	}
	orXor := 0
	for _, p := range pes[1:] {
		orXor |= p ^ pes[0]
	}
	if bits.OnesCount(uint(orXor)) != mathx.Log2(size) {
		t.Fatalf("%v is not a subcube: xor-span %b", sc, orXor)
	}
	seen := map[int]bool{}
	for _, p := range pes {
		if p < 0 || p >= 1<<dim || seen[p] {
			t.Fatalf("%v has bad PE %d", sc, p)
		}
		seen[p] = true
	}
}

// Recognition power on the empty cube: buddy recognizes N/size; gray code
// roughly doubles that (2N/size − 1); exhaustive recognizes
// C(dim,x)·2^(dim−x).
func TestRecognitionCounts(t *testing.T) {
	dim := 6
	c := NewCube(dim)
	n := c.N()
	for x := 1; x <= dim; x++ {
		size := 1 << x
		buddy := c.CountFree(size, Buddy)
		grayN := c.CountFree(size, GrayCode)
		exh := c.CountFree(size, Exhaustive)
		if buddy != n/size {
			t.Errorf("size %d: buddy %d, want %d", size, buddy, n/size)
		}
		wantGray := 2*n/size - 1
		if grayN != wantGray {
			t.Errorf("size %d: graycode %d, want %d", size, grayN, wantGray)
		}
		wantExh := binom(dim, x) << (dim - x)
		if exh != wantExh {
			t.Errorf("size %d: exhaustive %d, want %d", size, exh, wantExh)
		}
		if !(buddy <= grayN && grayN <= exh) {
			t.Errorf("size %d: recognition not monotone: %d %d %d", size, buddy, grayN, exh)
		}
	}
}

func binom(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// The classic Chen/Shin example of gray-code superiority: occupy PEs so
// that no buddy subcube of size 2 is free but a gray-code one is.
func TestGrayCodeBeatsBuddy(t *testing.T) {
	c := NewCube(3)
	// Busy: 0, 2, 4, 6 (all even) leaves pairs {1,3},{5,7},{1,5},{3,7}
	// free — none is a buddy pair ({0,1},{2,3},{4,5},{6,7}), but {1,3}
	// (mask fixing bits {0,2}) is a gray-recognizable... verify via
	// Exhaustive and compare strategies.
	for _, p := range []int{0, 2, 4, 6} {
		c.busy[p] = true
		c.used++
	}
	if _, ok := c.Find(2, Buddy); ok {
		t.Fatal("buddy should fail")
	}
	if _, ok := c.Find(2, Exhaustive); !ok {
		t.Fatal("exhaustive should succeed")
	}
	// Gray code order on 3 bits: 0,1,3,2,6,7,5,4 — consecutive pairs
	// include {1,3} and {7,5}, both free.
	sc, ok := c.Find(2, GrayCode)
	if !ok {
		t.Fatal("graycode should succeed")
	}
	checkIsSubcube(t, sc, 2, 3)
	for _, p := range sc.PEs(3) {
		if c.busy[p] {
			t.Fatal("graycode returned busy PE")
		}
	}
}

func TestAllocateRelease(t *testing.T) {
	c := NewCube(4)
	sc, _ := c.Find(4, Buddy)
	c.Allocate(sc)
	if c.Used() != 4 || c.Utilization() != 0.25 {
		t.Fatalf("used %d", c.Used())
	}
	// Double allocate panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double allocate did not panic")
			}
		}()
		c.Allocate(sc)
	}()
	c.Release(sc)
	if c.Used() != 0 {
		t.Fatal("release did not free")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		c.Release(sc)
	}()
}

// Differential test: on random occupancy, a strategy finds a subcube only
// if one exists per brute force over its own candidate set; and exhaustive
// finds one iff ANY subcube is free.
func TestFindDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		dim := 2 + rng.Intn(5)
		c := NewCube(dim)
		for p := 0; p < c.N(); p++ {
			if rng.Intn(2) == 0 {
				c.busy[p] = true
				c.used++
			}
		}
		for size := 1; size <= c.N(); size *= 2 {
			for _, st := range Strategies() {
				sc, ok := c.Find(size, st)
				count := c.CountFree(size, st)
				if ok != (count > 0) {
					t.Fatalf("dim=%d size=%d %v: Find=%v but CountFree=%d", dim, size, st, ok, count)
				}
				if ok {
					checkIsSubcube(t, sc, size, dim)
					for _, p := range sc.PEs(dim) {
						if c.busy[p] {
							t.Fatalf("%v returned busy PE %d", st, p)
						}
					}
				}
			}
			// Monotone recognition.
			if c.CountFree(size, Buddy) > c.CountFree(size, GrayCode) && size > 1 {
				t.Fatalf("buddy recognized more than graycode")
			}
			if c.CountFree(size, GrayCode) > c.CountFree(size, Exhaustive) {
				t.Fatalf("graycode recognized more than exhaustive")
			}
		}
	}
}

func TestRunQueueBasics(t *testing.T) {
	// Two size-4 jobs on an 8-PE cube run concurrently; a third waits.
	jobs := []Job{
		{ID: 1, Size: 4, Arrival: 0, Duration: 10},
		{ID: 2, Size: 4, Arrival: 1, Duration: 10},
		{ID: 3, Size: 4, Arrival: 2, Duration: 5},
	}
	res := RunQueue(3, Buddy, jobs)
	if res.Completed != 3 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Job 3 waits until t=10 (job 1 releases): wait 8.
	if res.MaxWait != 8 {
		t.Fatalf("max wait %g, want 8", res.MaxWait)
	}
	if res.EverQueued != 1 {
		t.Fatalf("queued %d", res.EverQueued)
	}
	if res.Makespan != 15 {
		t.Fatalf("makespan %g, want 15", res.Makespan)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %g", res.Utilization)
	}
}

// Better recognition means (weakly) less waiting on identical streams.
func TestBetterRecognitionLessWait(t *testing.T) {
	const dim = 6
	var prevMean float64
	first := true
	for _, st := range []Strategy{Exhaustive, GrayCode, Buddy} {
		var meanSum float64
		for s := int64(0); s < 5; s++ {
			jobs := RandomJobs(dim, 300, 3.0, 8.0, s)
			res := RunQueue(dim, st, jobs)
			if res.Completed != 300 {
				t.Fatalf("%v: completed %d", st, res.Completed)
			}
			meanSum += res.MeanWait
		}
		if !first && meanSum < prevMean-1e-9 {
			t.Errorf("%v waits %g below the better strategy's %g", st, meanSum, prevMean)
		}
		prevMean = meanSum
		first = false
	}
}

func TestRunQueueRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunQueue(3, Buddy, []Job{{ID: 1, Size: 16, Arrival: 0, Duration: 1}})
}

func TestGrayFunction(t *testing.T) {
	// Successive gray codes differ in exactly one bit.
	for i := 0; i < 255; i++ {
		if bits.OnesCount(uint(gray(i)^gray(i+1))) != 1 {
			t.Fatalf("gray(%d) -> gray(%d) not adjacent", i, i+1)
		}
	}
}

func TestNextSubsetGosper(t *testing.T) {
	// Enumerate all 3-subsets of 5 bits.
	count := 0
	full := (1 << 5) - 1
	for v := 0b111; v <= full; v = nextSubset(v) {
		if bits.OnesCount(uint(v)) != 3 {
			t.Fatalf("popcount drift at %b", v)
		}
		count++
		if v == 0b11100 {
			break
		}
	}
	if count != 10 {
		t.Fatalf("enumerated %d 3-subsets, want 10", count)
	}
}

// TestSequenceOpenLoop converts a two-job stream: each job arrives and
// departs at its own times, a departure sorts before an arrival at the
// same instant, and the offered load is PE-time over the span.
func TestSequenceOpenLoop(t *testing.T) {
	jobs := []Job{
		{ID: 1, Size: 2, Arrival: 0, Duration: 1},
		{ID: 2, Size: 4, Arrival: 1, Duration: 3},
	}
	seq, offered := Sequence(jobs)
	if err := seq.Validate(4); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind task.Kind
		size int
		at   float64
	}{{task.Arrive, 2, 0}, {task.Depart, 2, 1}, {task.Arrive, 4, 1}, {task.Depart, 4, 4}}
	if len(seq.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(seq.Events), len(want))
	}
	for i, w := range want {
		if e := seq.Events[i]; e.Kind != w.kind || e.Size != w.size || e.Time != w.at {
			t.Errorf("event %d = %+v, want %v of size %d at %v", i, e, w.kind, w.size, w.at)
		}
	}
	if offered != 3.5 {
		t.Errorf("offered load %v, want (2·1 + 4·3)/4 = 3.5", offered)
	}
}
