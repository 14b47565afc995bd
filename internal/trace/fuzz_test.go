package trace

import (
	"strings"
	"testing"

	"partalloc/internal/task"
)

// FuzzReadJSON: arbitrary input must never panic; accepted sequences must
// validate.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"format":1,"events":[{"kind":"arrive","task":1,"size":2},{"kind":"depart","task":1,"size":2}]}`)
	f.Add(`{"format":1,"events":[]}`)
	f.Add(`{}`)
	f.Add(`{"format":2,"events":[]}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"format":1,"label":"x","n":8,"events":[{"kind":"arrive","task":1,"size":8}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		seq, _, n, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := seq.Validate(n); verr != nil {
			t.Fatalf("ReadJSON accepted invalid sequence: %v", verr)
		}
	})
}

// FuzzValidate: Validate must never panic on arbitrary event streams built
// from fuzzer-chosen fields.
func FuzzValidate(f *testing.F) {
	f.Add(int64(1), 2, uint8(0), 4)
	f.Add(int64(-5), 0, uint8(1), 0)
	f.Add(int64(1), 1<<30, uint8(7), 2)
	f.Fuzz(func(t *testing.T, id int64, size int, kind uint8, n int) {
		seq := task.Sequence{Events: []task.Event{
			{Kind: task.Kind(kind % 3), Task: task.ID(id), Size: size},
			{Kind: task.Kind((kind + 1) % 3), Task: task.ID(id), Size: size},
		}}
		_ = seq.Validate(n % (1 << 20))
	})
}
