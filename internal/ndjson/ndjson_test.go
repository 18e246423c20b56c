package ndjson

import (
	"bytes"
	"strings"
	"testing"
)

type rec struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"`
}

// TestRoundTrip: one line per value, blank lines skipped on read, and a
// line longer than bufio's default 64 KiB token limit reads back whole.
func TestRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 3<<20)
	in := []rec{{Name: "a", N: 1}, {Name: long}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("wrote %d lines, want 2", got)
	}
	if !strings.HasPrefix(buf.String(), `{"name":"a","n":1}`+"\n") {
		t.Fatalf("first line = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	buf.WriteString("\n")
	back, err := Read[rec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != in[0] || back[1].Name != long {
		t.Fatalf("read %d values back, first %+v", len(back), back[0])
	}
}
