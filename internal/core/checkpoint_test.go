package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// chkConfig is one checkpointable allocator configuration under test.
// build constructs the instance that lives the trajectory; fresh
// constructs the restore target, deliberately differing where the codec
// must win (different PRNG seed, lazy flag off) to prove Restore imposes
// the snapshotted state rather than inheriting the constructor's.
type chkConfig struct {
	name   string
	build  func(m *tree.Machine) Allocator
	fresh  func(m *tree.Machine) Allocator
	faulty bool // include FailPE/RecoverPE ops in the script
}

func chkConfigs() []chkConfig {
	lazyPeriodic := func(m *tree.Machine) Allocator {
		p := NewPeriodic(m, 2, ArrivalOrder)
		p.SetLazyRealloc(true)
		return p
	}
	return []chkConfig{
		{"greedy", mk(NewGreedy), mk(NewGreedy), true},
		{"basic", mk(NewBasic), mk(NewBasic), true},
		{"constant", mk(NewConstant), mk(NewConstant), true},
		{"periodic-d2", mkD(NewPeriodic, 2), mkD(NewPeriodic, 2), true},
		{"periodic-dinf", mkD(NewPeriodic, -1), mkD(NewPeriodic, -1), true},
		{"periodic-lazy", lazyPeriodic, mkD(NewPeriodic, 2), true},
		{"lazy-d1", mkD(NewLazy, 1), mkD(NewLazy, 1), true},
		{"lazy-dinf", mkD(NewLazy, -1), mkD(NewLazy, -1), true},
		{"random", mkSeed(NewRandom, 42), mkSeed(NewRandom, 999), false},
		{"twochoice", mkSeed(NewTwoChoice, 42), mkSeed(NewTwoChoice, 999), false},
		{"greedytie", mkSeed(NewGreedyRandomTie, 42), mkSeed(NewGreedyRandomTie, 999), false},
	}
}

func mk[A Allocator](f func(*tree.Machine) A) func(*tree.Machine) Allocator {
	return func(m *tree.Machine) Allocator { return f(m) }
}

func mkD[A Allocator](f func(*tree.Machine, int, ReallocOrder) A, d int) func(*tree.Machine) Allocator {
	return func(m *tree.Machine) Allocator { return f(m, d, DecreasingSize) }
}

func mkSeed[A Allocator](f func(*tree.Machine, int64) A, seed int64) func(*tree.Machine) Allocator {
	return func(m *tree.Machine) Allocator { return f(m, seed) }
}

// chkOp is one scripted event: arrive, depart, fail, or recover.
type chkOp struct {
	kind byte // 'a', 'd', 'f', 'r'
	t    task.Task
	id   task.ID
	pe   int
}

// chkScript generates a deterministic mixed trajectory. Sizes stay ≤ n/2
// so a single concurrent failed PE never strands a victim with no
// healthy same-size submachine.
func chkScript(seed int64, n, steps int, faults bool) []chkOp {
	rng := rand.New(rand.NewSource(seed))
	var (
		ops    []chkOp
		active []task.ID
		nextID task.ID = 1
		failed         = -1
	)
	maxExp := mathx.Log2(n) - 1
	for i := 0; i < steps; i++ {
		switch {
		case len(active) > 0 && rng.Intn(4) == 0:
			j := rng.Intn(len(active))
			ops = append(ops, chkOp{kind: 'd', id: active[j]})
			active = append(active[:j], active[j+1:]...)
		case faults && failed < 0 && rng.Intn(8) == 0:
			failed = rng.Intn(n)
			ops = append(ops, chkOp{kind: 'f', pe: failed})
		case faults && failed >= 0 && rng.Intn(6) == 0:
			ops = append(ops, chkOp{kind: 'r', pe: failed})
			failed = -1
		default:
			size := 1 << rng.Intn(maxExp+1)
			ops = append(ops, chkOp{kind: 'a', t: task.Task{ID: nextID, Size: size}})
			active = append(active, nextID)
			nextID++
		}
	}
	return ops
}

func applyChkOp(a Allocator, op chkOp) tree.Node {
	switch op.kind {
	case 'a':
		return a.Arrive(op.t)
	case 'd':
		a.Depart(op.id)
	case 'f':
		a.(FaultTolerant).FailPE(op.pe)
	case 'r':
		a.(FaultTolerant).RecoverPE(op.pe)
	}
	return 0
}

// TestSnapshotRoundTripTrajectory is the codec's headline gate: snapshot
// a live mid-run allocator, restore into a fresh (differently seeded)
// instance, and drive both through the identical tail. Every placement
// decision, every load, and the final snapshots must be byte-identical —
// i.e. restoring is indistinguishable from never having snapshotted.
func TestSnapshotRoundTripTrajectory(t *testing.T) {
	const n, steps, cut = 16, 400, 250
	for _, tc := range chkConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			script := chkScript(7, n, steps, tc.faulty)
			orig := tc.build(tree.MustNew(n))
			for _, op := range script[:cut] {
				applyChkOp(orig, op)
			}
			snap := orig.(Checkpointable).Snapshot()
			if again := orig.(Checkpointable).Snapshot(); !bytes.Equal(snap, again) {
				t.Fatal("Snapshot is not deterministic: two calls on the same state differ")
			}
			rest := tc.fresh(tree.MustNew(n))
			if err := rest.(Checkpointable).Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := rest.(Checkpointable).Snapshot(); !bytes.Equal(got, snap) {
				t.Fatalf("snapshot(restore(snapshot)) differs: %d vs %d bytes", len(got), len(snap))
			}
			for i, op := range script[cut:] {
				va := applyChkOp(orig, op)
				vb := applyChkOp(rest, op)
				if va != vb {
					t.Fatalf("tail op %d (%c): original placed at %d, restored at %d", i, op.kind, va, vb)
				}
				if la, lb := orig.MaxLoad(), rest.MaxLoad(); la != lb {
					t.Fatalf("tail op %d: MaxLoad diverged %d vs %d", i, la, lb)
				}
			}
			if !reflect.DeepEqual(orig.PELoads(), rest.PELoads()) {
				t.Fatal("final PE loads diverged")
			}
			sa := orig.(Checkpointable).Snapshot()
			sb := rest.(Checkpointable).Snapshot()
			if !bytes.Equal(sa, sb) {
				t.Fatal("final snapshots diverged after identical tails")
			}
		})
	}
}

// TestSnapshotRestoreErrors exercises the rejection paths: every
// truncation and every single-byte corruption of a real snapshot must
// return an error wrapping ErrBadSnapshot (CRC-32C detects all
// single-byte damage), never panic — and a failed Restore must leave the
// receiver untouched.
func TestSnapshotRestoreErrors(t *testing.T) {
	const n = 16
	for _, tc := range chkConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			script := chkScript(11, n, 200, tc.faulty)
			a := tc.build(tree.MustNew(n))
			for _, op := range script {
				applyChkOp(a, op)
			}
			c := a.(Checkpointable)
			snap := c.Snapshot()
			before := append([]byte(nil), snap...)
			for cut := 0; cut < len(snap); cut++ {
				if err := c.Restore(snap[:cut]); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("truncation to %d bytes: got %v, want ErrBadSnapshot", cut, err)
				}
			}
			for i := range snap {
				mut := append([]byte(nil), snap...)
				mut[i] ^= 0x5a
				if err := c.Restore(mut); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("corrupt byte %d: got %v, want ErrBadSnapshot", i, err)
				}
			}
			if got := c.Snapshot(); !bytes.Equal(got, before) {
				t.Fatal("failed Restore mutated the receiver")
			}
		})
	}
}

// TestSnapshotCrossAlgorithm verifies the algorithm tag: a snapshot of
// one allocator must be rejected by every other.
func TestSnapshotCrossAlgorithm(t *testing.T) {
	const n = 16
	cfgs := chkConfigs()
	snaps := make([][]byte, len(cfgs))
	tags := make([]byte, len(cfgs))
	for i, tc := range cfgs {
		a := tc.build(tree.MustNew(n))
		for _, op := range chkScript(3, n, 100, tc.faulty) {
			applyChkOp(a, op)
		}
		snaps[i] = a.(Checkpointable).Snapshot()
		tags[i] = snaps[i][3]
	}
	for i, tc := range cfgs {
		target := tc.fresh(tree.MustNew(n)).(Checkpointable)
		for j := range cfgs {
			if tags[j] == tags[i] {
				continue // periodic-* share a codec tag by design
			}
			if err := target.Restore(snaps[j]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s accepted a %s snapshot: %v", tc.name, cfgs[j].name, err)
			}
		}
	}
}

// TestSnapshotWrongMachine verifies the machine-size check.
func TestSnapshotWrongMachine(t *testing.T) {
	for _, tc := range chkConfigs() {
		a := tc.build(tree.MustNew(16))
		for _, op := range chkScript(5, 16, 80, tc.faulty) {
			applyChkOp(a, op)
		}
		snap := a.(Checkpointable).Snapshot()
		small := tc.fresh(tree.MustNew(8)).(Checkpointable)
		if err := small.Restore(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: N=8 instance accepted an N=16 snapshot: %v", tc.name, err)
		}
	}
}

// BenchmarkSnapshotRestore times a Snapshot plus a Restore of it into a
// second instance, per checkpointable configuration, after a fixed
// 600-step trajectory on N=64. Run with -benchmem.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, tc := range chkConfigs() {
		b.Run(tc.name, func(b *testing.B) {
			a := tc.build(tree.MustNew(digestN))
			for _, op := range chkScript(19, digestN, 600, tc.faulty) {
				applyChkOp(a, op)
			}
			src := a.(Checkpointable)
			dst := tc.fresh(tree.MustNew(digestN)).(Checkpointable)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Restore(src.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
