package approxobj

import (
	"fmt"

	"approxobj/internal/shard"
)

// This file is the public face of the backend plane: the table of
// registered object kinds that the spec layer reads for validation,
// defaults, and envelope composition, and that the registry reads to
// dispatch construction. Adding object family N+1 to the package means
// adding one row here (plus its builder and its internal/shard policy
// row) — not new switches in spec validation, registry dispatch, or the
// pool layer.

// instance is the kind-agnostic view of a built object — what the
// registry and the backend table program against, independent of the
// kind's handle types. Every public object kind (*Counter,
// *MaxRegister, *Snapshot, *Histogram) implements it, mostly through
// its embedded base.
type instance interface {
	// Spec returns the validated spec the object was built from.
	Spec() Spec
	// Bounds returns the object's accuracy envelope.
	Bounds() Bounds
	// StepsRetired returns the steps credited by released pooled handles.
	StepsRetired() uint64
	// Close stops the object's background resources — the read cache's
	// combiner and the window's rotator, when set. Idempotent; a no-op
	// for objects without any.
	Close()
	// snapshotValue reads the object's current value through the
	// registry's reserved snapshot slot (only registry-owned objects
	// have one).
	snapshotValue() uint64
	// snapshotBounds returns the envelope that bounds snapshotValue —
	// Bounds itself for kinds whose exported value is a single read, but
	// widened for kinds whose exported value aggregates (a snapshot's
	// component sum can trail by Buffer per written component).
	snapshotBounds() Bounds
	// snapshotSteps returns the steps the snapshot slot has taken.
	snapshotSteps() uint64
	// snapshotDetail returns the distribution detail of histogram
	// objects (one consistent bucket read, for exposition formats — see
	// package expose), nil for every scalar kind.
	snapshotDetail() *HistogramDetail
}

// kindDescriptor is one registration in the backend-plane table:
// everything the spec and registry layers need to know about an object
// kind — its text name, which accuracy modes its backends implement
// (with any extra per-mode precondition), whether WithBound applies, how
// its envelope composes on the sharded runtime, which bench scenario
// covers it, and how to build it.
type kindDescriptor struct {
	kind   Kind
	name   string // Kind text name (String/MarshalText/ParseKind)
	plural string // for validation error messages

	// The kind's policy row on the plane, taken verbatim from
	// internal/shard (the single source of truth for combine/buffer
	// names and envelope scaling; Kinds exposes it for docs, tables, and
	// the bench-coverage check).
	policy   shard.PolicyRow
	envelope string // how the per-shard envelope composes (prose)
	scenario string // bench scenario covering this kind (CI-checked)

	// staleTerm documents, per kind, what the WithReadCache staleness
	// window adds to the envelope (the read-plane analogue of envelope;
	// source for the README's read-plane table).
	staleTerm string
	// readScenario names the read-dominated bench scenario covering this
	// kind's cached read path. Every kind accepts WithReadCache (the
	// read-combiner tier is generic), so the startup gate and the bench
	// coverage test require it to be declared and emitted, like scenario.
	readScenario string

	// windowTerm documents, per kind, what a windowed read means under
	// the kind's combine — which aggregate "over the last d" the live
	// ring folds to (source for the README's windowed-objects table).
	windowTerm string
	// windowScenario names the windowed observe+scrape bench scenario
	// covering this kind. Every kind supports WithWindow (the epoch ring
	// is generic), so the startup gate and the bench coverage test
	// require it to be declared and emitted, like scenario and
	// readScenario.
	windowScenario string

	// accuracies is the kind's row set in the accuracy plane: each
	// supported accuracy mode maps to an extra precondition check (nil =
	// none beyond the accuracy table's own parameter checks). A mode
	// absent from the map is rejected by validation, so accuracy support
	// is declared here — per kind, per row — not switched on anywhere.
	accuracies map[accMode]func(s Spec) error
	// frontierScenario names the deterministic-vs-randomized frontier
	// bench scenario for kinds that register a randomized accuracy row
	// (CI-checked like scenario: a randomized-capable kind without one
	// fails the startup gate).
	frontierScenario string
	// allowBound reports whether WithBound applies to this kind.
	allowBound bool
	// boundLimitsBatch reports whether the kind's batch parameter is a
	// window in the value domain, so a batch at or past the bound would
	// swallow every legal write (max registers; histograms batch
	// observation counts, which the bound does not constrain).
	boundLimitsBatch bool

	// build constructs the object from a validated spec.
	build func(s Spec) (instance, error)
}

// kindTable is the backend-plane registration table, in presentation
// order. The descriptors live next to their object families
// (approxobj.go, snapshotobj.go).
var kindTable = []*kindDescriptor{
	counterDescriptor,
	maxRegisterDescriptor,
	snapshotDescriptor,
	histogramDescriptor,
}

// descriptorOf returns the table row for k, or nil for unknown kinds.
func descriptorOf(k Kind) *kindDescriptor {
	for _, d := range kindTable {
		if d.kind == k {
			return d
		}
	}
	return nil
}

// buildSpec dispatches construction of a validated spec through the
// backend table.
func buildSpec(s Spec) (instance, error) {
	d := descriptorOf(s.kind)
	if d == nil {
		return nil, fmt.Errorf("approxobj: invalid object kind %d", s.kind)
	}
	return d.build(s)
}

// KindPolicy is one row of the backend-plane policy table: how a
// registered object kind composes on the sharded runtime. It is the
// public, read-only view of the registration table — the source for the
// README's policy table and for the CI check that every kind has a bench
// scenario.
type KindPolicy struct {
	// Kind identifies the object family.
	Kind Kind
	// Combine names how a read folds the per-shard reads ("sum", "max",
	// "per-component").
	Combine string
	// Buffer names the handle-local buffering discipline ("count
	// batching", "write elision", "component elision").
	Buffer string
	// Envelope describes how the per-shard envelope composes over S
	// shards and WithBatch(B) buffering.
	Envelope string
	// BenchScenario names the bench record scenario covering this kind
	// (see internal/bench and cmd/approxbench).
	BenchScenario string
	// StaleTerm describes what the WithReadCache staleness window adds
	// to the kind's envelope (the read-plane analogue of Envelope).
	StaleTerm string
	// ReadBenchScenario names the read-dominated bench scenario covering
	// this kind's cached read path (CI-checked like BenchScenario: a kind
	// on the read-combiner tier without one fails the startup gate).
	ReadBenchScenario string
	// WindowTerm describes what a WithWindow read aggregates under the
	// kind's combine — the per-kind reading of "over the last d".
	WindowTerm string
	// WindowBenchScenario names the windowed observe+scrape bench
	// scenario covering this kind (CI-checked like BenchScenario: a kind
	// declaring window support without one fails the startup gate).
	WindowBenchScenario string
	// Accuracies lists the accuracy classes the kind's backends
	// implement, in accuracy-table order (e.g. "exact", "additive",
	// "multiplicative", "randomized") — the exported view of the kind's
	// accuracy row set.
	Accuracies []string
	// FrontierBenchScenario names the deterministic-vs-randomized
	// frontier bench scenario for kinds with a "randomized" accuracy row
	// (CI-checked like BenchScenario: a randomized-capable kind without
	// one fails the startup gate); empty for deterministic-only kinds.
	FrontierBenchScenario string
}

// Kinds returns the policy table of every registered object kind, in
// presentation order.
func Kinds() []KindPolicy {
	out := make([]KindPolicy, 0, len(kindTable))
	for _, d := range kindTable {
		accs := make([]string, 0, len(d.accuracies))
		for _, r := range accuracyTable {
			if _, ok := d.accuracies[r.mode]; ok {
				accs = append(accs, r.name)
			}
		}
		out = append(out, KindPolicy{
			Kind:                  d.kind,
			Combine:               d.policy.Combine,
			Buffer:                d.policy.Buffer,
			Envelope:              d.envelope,
			BenchScenario:         d.scenario,
			StaleTerm:             d.staleTerm,
			ReadBenchScenario:     d.readScenario,
			WindowTerm:            d.windowTerm,
			WindowBenchScenario:   d.windowScenario,
			Accuracies:            accs,
			FrontierBenchScenario: d.frontierScenario,
		})
	}
	return out
}
