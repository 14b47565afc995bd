package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partalloc/internal/mathx"
	"partalloc/internal/tree"
)

// The snapshot digest golden pins every allocator's Snapshot bytes, so a
// refactor of the codecs or of the state behind them cannot change the
// format that journals already hold. The file must never be regenerated
// casually: it was written by the codecs that produced today's journals,
// and byte-identity here is the proof that those journals still recover.
var updateSnapshotDigests = flag.Bool("update-snapshot-digests", false,
	"rewrite testdata/snapshot_digests.json from the current codecs")

const snapshotDigestsPath = "testdata/snapshot_digests.json"

// digestN is the machine size of the pinned trajectories; at d =
// GreedyBound(digestN) A_M hands off to A_G while A_M-lazy keeps its
// copies.
const digestN = 64

// digestConfigs is chkConfigs plus A_M-lazy and A_M at the greedy bound.
func digestConfigs() []chkConfig {
	d := mathx.GreedyBound(digestN)
	return append(chkConfigs(),
		chkConfig{"lazy-dbound", mkD(NewLazy, d), mkD(NewLazy, d), true},
		chkConfig{"periodic-dbound", mkD(NewPeriodic, d), mkD(NewPeriodic, d), true},
	)
}

// TestSnapshotDigestGolden runs a fixed chkScript through each
// configuration, compares the sha256 of its Snapshot with the pinned
// digest, and restores the snapshot into a fresh instance, which must
// re-encode the same bytes.
func TestSnapshotDigestGolden(t *testing.T) {
	got := make(map[string]string)
	for _, tc := range digestConfigs() {
		a := tc.build(tree.MustNew(digestN))
		for _, op := range chkScript(19, digestN, 600, tc.faulty) {
			applyChkOp(a, op)
		}
		snap := a.(Checkpointable).Snapshot()
		sum := sha256.Sum256(snap)
		got[tc.name] = hex.EncodeToString(sum[:])

		rest := tc.fresh(tree.MustNew(digestN)).(Checkpointable)
		if err := rest.Restore(snap); err != nil {
			t.Fatalf("%s: Restore: %v", tc.name, err)
		}
		if again := rest.Snapshot(); !bytes.Equal(again, snap) {
			t.Errorf("%s: restored instance re-encodes %d bytes differing from the %d restored", tc.name, len(again), len(snap))
		}
		// Only a copy-mode instance has a d to retune.
		if dg, ok := a.(Degradable); ok && strings.HasSuffix(tc.name, "-dbound") {
			if keeps := dg.SetEffectiveD(dg.EffectiveD()); keeps != (tc.name == "lazy-dbound") {
				t.Errorf("%s: keeps its copies = %v", tc.name, keeps)
			}
		}
	}

	if *updateSnapshotDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(snapshotDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d configurations)", snapshotDigestsPath, len(got))
		return
	}

	raw, err := os.ReadFile(snapshotDigestsPath)
	if err != nil {
		t.Fatalf("golden missing: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: snapshot digest %s, pinned %s", name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest", name)
		}
	}
}
