package service

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/ondie"
)

// Golden fingerprints pin the content-address scheme. A cluster relies
// on every node — and every future build — agreeing on these bytes: the
// coordinator caches whole jobs under them, and a drift would silently
// invalidate caches or, worse, collide distinct specs. If a change here
// is intentional, bump specVersion so old cache keys retire explicitly,
// and regenerate these constants.
var goldenFingerprints = []struct {
	name string
	spec Spec
	want string
}{
	{
		name: "default-combined",
		spec: Spec{Workload: "db-oltp"},
		want: "c725d371f22fbb1d450fcda204b0004c1f1aeee38808af185189d3e662be4df1",
	},
	{
		name: "tiny-basic-8",
		spec: Spec{
			Mechanism:  "basic",
			Workload:   "db-oltp",
			HorizonSec: 20000,
			Seed:       7,
			Replicas:   8,
			Geometry: &mem.Geometry{
				Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
				RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
			},
		},
		want: "4f09a2c51be4fa86e52a3723b67394c6fd0c714ce7c1c86d3328d54357e12631",
	},
	{
		name: "kv-faulty",
		spec: Spec{
			Mechanism: "combined", Workload: "kv-store", Seed: 42,
			Fault: &fault.Plan{ReadFlipRate: 0.001, SweepSkipRate: 0.01},
		},
		want: "2fbdbc8d5d6bb8d9df573a0277a2c87e131b6f7030c0cb4f8f10bf96a2e56612",
	},
	{
		name: "oltp-ondie-weak",
		spec: Spec{
			Workload: "db-oltp",
			OnDie:    &ondie.Config{T: 1, WeakT: 0, WeakFraction: 0.25},
		},
		want: "f8013ea2a7735667a0cf4c4e149a289c461bb514c48608c62bc73f44d5958a1b",
	},
}

func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range goldenFingerprints {
		norm := mustNormalize(t, tc.spec)
		if got := norm.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s (content-address scheme changed; bump specVersion)",
				tc.name, got, tc.want)
		}
	}
}

// TestGoldenFingerprintFieldOrder re-derives a golden spec from JSON with
// the fields spelled in a scrambled order and checks the fingerprint is
// unchanged — the canonical encoding, not the wire order, is hashed.
func TestGoldenFingerprintFieldOrder(t *testing.T) {
	scrambled := `{
		"geometry": {"line_bytes": 64, "lines_per_row": 8, "rows_per_bank": 8,
			"banks_per_rank": 2, "ranks_per_chan": 1, "channels": 1},
		"replicas": 8,
		"seed": 7,
		"horizon_sec": 20000,
		"workload": "db-oltp",
		"mechanism": "basic"
	}`
	var spec Spec
	if err := json.Unmarshal([]byte(scrambled), &spec); err != nil {
		t.Fatalf("unmarshal scrambled spec: %v", err)
	}
	norm := mustNormalize(t, spec)
	if got, want := norm.Fingerprint(), goldenFingerprints[1].want; got != want {
		t.Errorf("scrambled field order changed the fingerprint: %s, want %s", got, want)
	}
}

// TestGoldenFingerprintExplicitDefaults pins that spelling out a default
// hits the same golden value as omitting it.
func TestGoldenFingerprintExplicitDefaults(t *testing.T) {
	explicit := mustNormalize(t, Spec{Workload: "db-oltp", Mechanism: "combined", Seed: 1, Replicas: 1})
	if got, want := explicit.Fingerprint(), goldenFingerprints[0].want; got != want {
		t.Errorf("explicit defaults changed the fingerprint: %s, want %s", got, want)
	}
}
