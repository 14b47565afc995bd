package trace

import (
	"strings"
	"testing"

	"partalloc/internal/workload"
)

func TestJSONRoundTrip(t *testing.T) {
	seq := workload.Poisson(workload.Config{N: 32, Arrivals: 100, Seed: 1})
	var b strings.Builder
	if err := WriteJSON(&b, seq, "poisson-test", 32); err != nil {
		t.Fatal(err)
	}
	got, label, n, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if label != "poisson-test" || n != 32 {
		t.Fatalf("metadata: %q %d", label, n)
	}
	if len(got.Events) != len(seq.Events) {
		t.Fatalf("length %d vs %d", len(got.Events), len(seq.Events))
	}
	for i := range got.Events {
		if got.Events[i] != seq.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got.Events[i], seq.Events[i])
		}
	}
}

func TestReadJSONRejectsBadFormat(t *testing.T) {
	if _, _, _, err := ReadJSON(strings.NewReader(`{"format":99,"events":[]}`)); err == nil {
		t.Fatal("accepted bad format version")
	}
	if _, _, _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("accepted garbage")
	}
	bad := `{"format":1,"events":[{"kind":"explode","task":1,"size":1}]}`
	if _, _, _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted unknown kind")
	}
}

func TestReadJSONValidates(t *testing.T) {
	// Departure of never-arrived task must be rejected at load time.
	bad := `{"format":1,"events":[{"kind":"depart","task":5,"size":1}]}`
	if _, _, _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("accepted invalid sequence")
	}
}
