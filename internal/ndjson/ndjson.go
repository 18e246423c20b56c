// Package ndjson reads and writes newline-delimited JSON: one value per
// line. The checkers' repro files (crashhunt -o, transval -o) use it.
package ndjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Write encodes each value on a line of its own. The encoding is
// deterministic for structs without maps: field order is fixed.
func Write[T any](w io.Writer, vals []T) error {
	enc := json.NewEncoder(w)
	for i := range vals {
		if err := enc.Encode(&vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// Read decodes one value per line, skipping blank lines. A line that
// does not decode is an error naming its 1-based line number.
func Read[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // a repro carries its program source on one line
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, fmt.Errorf("ndjson: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
