package store

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion is the compile-artifact schema generation. It is mixed
// into every cache key, so bumping it invalidates all previously stored
// artifacts at once — the cache's only invalidation mechanism. Bump it
// whenever the emitted listing format, the statistics, or anything else
// an artifact captures could change for equal inputs (e.g. an allocator
// tie-break change), so stale artifacts become unreachable rather than
// wrong.
//
// Version 2: the opcode space grew an inter-cluster copy (ir.Copy), so the
// latency table hashed into every key changed length, and machine hashing
// gained the clustered/buffered/issue-width target fields.
//
// Version 3: the statistics lost crit_path, which always equalled words.
const SchemaVersion = 3

// Artifact is one cached compile result: the per-block listings exactly
// as the pipeline emitted them, plus the static statistics — everything
// a compile-only request needs, so a warm hit answers without running
// the allocator.
type Artifact struct {
	Schema  int             `json:"schema"`
	Method  string          `json:"method"`
	Machine string          `json:"machine"`
	Blocks  []ArtifactBlock `json:"blocks"`
	Stats   ArtifactStats   `json:"stats"`
}

// ArtifactBlock is one basic block's emitted VLIW listing, byte-identical
// to assign.Program.String() at compile time.
type ArtifactBlock struct {
	Label   string `json:"label"`
	Listing string `json:"listing"`
}

// ArtifactStats mirrors the static fields of pipeline.Stats (the dynamic
// ones require execution, which a cached artifact cannot answer).
type ArtifactStats struct {
	Words          int  `json:"words"`
	SpillOps       int  `json:"spill_ops"`
	IntRegs        int  `json:"int_regs"`
	FPRegs         int  `json:"fp_regs"`
	URSATransforms int  `json:"ursa_transforms"`
	URSAFits       bool `json:"ursa_fits"`
}

// Encode serializes the artifact, stamping the current schema version.
func (a *Artifact) Encode() ([]byte, error) {
	a.Schema = SchemaVersion
	return json.Marshal(a)
}

// DecodeArtifact parses a stored artifact. A malformed payload or a
// schema mismatch returns an error; callers treat either as a cache miss
// (the store's integrity hash already rules out bit rot, so a decode
// failure means a schema change or a foreign writer).
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("store: artifact: %w", err)
	}
	if a.Schema != SchemaVersion {
		return nil, fmt.Errorf("store: artifact schema %d, want %d", a.Schema, SchemaVersion)
	}
	return &a, nil
}
