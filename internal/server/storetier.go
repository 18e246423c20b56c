package server

import (
	"encoding/json"

	"schematic/internal/store"
)

// The disk tier: when Config.Store is set, resolve writes every
// cacheable successful job result through to the content-addressed
// store, and every cache-missing leader consults the store before
// taking a worker slot. Results therefore survive restarts, and N
// replicas pointed at one -store directory share each other's work — a
// cell computed by any replica is a cross-process hit everywhere else.

// storedResult is the envelope persisted per digest. Kind pins the
// payload to its endpoint so a digest collision across kinds (or a
// mislabeled blob) can never decode into the wrong response type.
type storedResult struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// kindOf maps a response value to its endpoint kind; "" means the value
// is not a persistable job result.
func kindOf(val any) string {
	switch val.(type) {
	case *CompileResponse:
		return "compile"
	case *EmulateResponse:
		return "emulate"
	case *ValidateResponse:
		return "validate"
	case *HuntResponse:
		return "hunt"
	case *VerifyResponse:
		return "verify"
	}
	// GridResponse is deliberately absent: grids reassemble from their
	// cells, which are what persists.
	return ""
}

// newResult allocates the response type a stored envelope of this kind
// decodes into.
func newResult(kind string) any {
	switch kind {
	case "compile":
		return new(CompileResponse)
	case "emulate":
		return new(EmulateResponse)
	case "validate":
		return new(ValidateResponse)
	case "hunt":
		return new(HuntResponse)
	case "verify":
		return new(VerifyResponse)
	}
	return nil
}

// storePut serializes a successful result and commits it under its
// digest.
// Store trouble is logged, never surfaced — the in-memory tier already
// holds the result and the client already has its answer.
func (s *Server) storePut(digest string, val any) {
	if s.store == nil {
		return
	}
	kind := kindOf(val)
	if kind == "" {
		return
	}
	body, err := json.Marshal(val)
	if err != nil {
		return
	}
	env, _ := json.Marshal(storedResult{Kind: kind, Body: body})
	if err := s.store.Put(digest, env); err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("store: put %s: %v", short(digest), err)
	}
}

// storeGet consults the disk tier for a digest and decodes it into the
// endpoint's response type. The store already checksum-verified the
// bytes; an envelope that still fails to decode, or that carries the
// wrong kind, came from an incompatible writer and is quarantined so it
// is recomputed rather than retried forever.
func (s *Server) storeGet(kind, digest string) (any, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok, err := s.store.Get(digest)
	if err != nil || !ok {
		return nil, false
	}
	var env storedResult
	if err := json.Unmarshal(payload, &env); err != nil || env.Kind != kind {
		s.store.Quarantine(digest)
		return nil, false
	}
	val := newResult(kind)
	if val == nil {
		return nil, false
	}
	if err := json.Unmarshal(env.Body, val); err != nil {
		s.store.Quarantine(digest)
		return nil, false
	}
	return val, true
}

// StoreStats snapshots the disk tier's counters; zero when no store is
// configured.
func (s *Server) StoreStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// short truncates a digest for log lines.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
