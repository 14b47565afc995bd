// Package trace serializes task sequences so experiments are
// replayable: a sequence generated once (including adversarial
// constructions, which are expensive to regenerate against a specific
// algorithm) can be saved as JSON, reloaded, and replayed against any
// allocator.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"partalloc/internal/task"
)

// fileFormat is bumped when the on-disk schema changes.
const fileFormat = 1

// sequenceFile is the JSON schema for a serialized sequence.
type sequenceFile struct {
	Format int         `json:"format"`
	Label  string      `json:"label,omitempty"`
	N      int         `json:"n,omitempty"`
	Events []eventJSON `json:"events"`
}

type eventJSON struct {
	Kind string  `json:"kind"`
	Task int64   `json:"task"`
	Size int     `json:"size,omitempty"`
	Time float64 `json:"time,omitempty"`
}

// WriteJSON serializes a sequence. Label and n are free-form metadata (n
// is the machine size the sequence was generated for; 0 if unknown).
func WriteJSON(w io.Writer, seq task.Sequence, label string, n int) error {
	f := sequenceFile{Format: fileFormat, Label: label, N: n}
	f.Events = make([]eventJSON, len(seq.Events))
	for i, e := range seq.Events {
		f.Events[i] = eventJSON{
			Kind: e.Kind.String(),
			Task: int64(e.Task),
			Size: e.Size,
			Time: e.Time,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadJSON deserializes a sequence written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (task.Sequence, string, int, error) {
	var f sequenceFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return task.Sequence{}, "", 0, fmt.Errorf("trace: decoding: %w", err)
	}
	if f.Format != fileFormat {
		return task.Sequence{}, "", 0, fmt.Errorf("trace: unsupported format %d", f.Format)
	}
	seq := task.Sequence{Events: make([]task.Event, len(f.Events))}
	for i, e := range f.Events {
		var kind task.Kind
		switch e.Kind {
		case "arrive":
			kind = task.Arrive
		case "depart":
			kind = task.Depart
		default:
			return task.Sequence{}, "", 0, fmt.Errorf("trace: event %d has unknown kind %q", i, e.Kind)
		}
		seq.Events[i] = task.Event{Kind: kind, Task: task.ID(e.Task), Size: e.Size, Time: e.Time}
	}
	if err := seq.Validate(f.N); err != nil {
		return task.Sequence{}, "", 0, fmt.Errorf("trace: invalid sequence: %w", err)
	}
	return seq, f.Label, f.N, nil
}
