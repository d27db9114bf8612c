package experiments

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCISmokeNamesGatedProbes: the -bench regex of CI's "Gated
// benchmarks (smoke)" step names exactly GatedProbes, so a probe added
// to the gate is also smoke-run on every push (and vice versa).
func TestCISmokeNamesGatedProbes(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)- name: Gated benchmarks \(smoke\)\n\s+run: .*-bench '([^']*)'`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no \"Gated benchmarks (smoke)\" step with a -bench regex")
	}
	smoke := strings.Split(string(m[1]), "|")
	gated := slices.Clone(GatedProbes)
	slices.Sort(smoke)
	slices.Sort(gated)
	if !slices.Equal(smoke, gated) {
		t.Fatalf("CI smoke regex names %v,\nGatedProbes is %v", smoke, gated)
	}
}

// results builds one BenchResult per gated probe; missing ns values
// repeat the last given one, so the tests stay valid as probes are added.
func results(ns ...float64) []BenchResult {
	known := KnownProbes()
	out := make([]BenchResult, len(GatedProbes))
	for i, name := range GatedProbes {
		v := ns[len(ns)-1]
		if i < len(ns) {
			v = ns[i]
		}
		out[i] = BenchResult{Name: name, N: 1, NsPerOp: v, Workers: known[name]}
	}
	return out
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := results(1000, 2000, 3000)
	cur := results(1200, 2400, 3600) // +20%, inside the 25% gate
	if regs := Check(base, cur, CheckTolerance); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	base := results(1000, 2000, 3000)
	cur := results(1000, 2600, 3000) // middle probe +30%
	regs := Check(base, cur, CheckTolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], GatedProbes[1]) {
		t.Fatalf("want one regression on %s, got %v", GatedProbes[1], regs)
	}
}

func TestCheckFlagsMissingProbes(t *testing.T) {
	base := results(1000, 2000, 3000)
	regs := Check(base[:1], results(1000, 2000, 3000), CheckTolerance)
	if len(regs) != len(GatedProbes)-1 {
		t.Fatalf("want %d missing-from-baseline regressions, got %v", len(GatedProbes)-1, regs)
	}
	regs = Check(base, nil, CheckTolerance)
	if len(regs) != len(GatedProbes) {
		t.Fatalf("want all probes missing from current, got %v", regs)
	}
}

func TestCheckFlagsWorkerMismatch(t *testing.T) {
	base := results(1000, 2000, 3000)
	base[0].Workers = 8 // baseline generated in parallel
	regs := Check(base, results(1000, 2000, 3000), CheckTolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], "worker-count mismatch") {
		t.Fatalf("want one worker-count mismatch, got %v", regs)
	}
}

// withAllocs sets every result's allocs/op (the results helper leaves
// them zero, which Check reads as "not recorded").
func withAllocs(rs []BenchResult, allocs int64) []BenchResult {
	for i := range rs {
		rs[i].AllocsPerOp = allocs
	}
	return rs
}

func TestCheckFlagsAllocRegression(t *testing.T) {
	base := withAllocs(results(1000, 2000, 3000), 100)
	cur := withAllocs(results(1000, 2000, 3000), 100)
	cur[2].AllocsPerOp = 100 + AllocSlack + 1 // same speed, more allocations
	regs := Check(base, cur, CheckTolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], GatedProbes[2]) || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("want one allocs/op regression on %s, got %v", GatedProbes[2], regs)
	}
	// A probe can regress on both axes at once: both are reported.
	cur[2].NsPerOp = 2 * base[2].NsPerOp
	if regs := Check(base, cur, CheckTolerance); len(regs) != 2 {
		t.Fatalf("want ns/op and allocs/op regressions on %s, got %v", GatedProbes[2], regs)
	}
}

func TestCheckAllocGateTolerance(t *testing.T) {
	base := withAllocs(results(1000, 2000, 3000), 100)
	cur := withAllocs(results(1000, 2000, 3000), 100-7) // fewer allocations always pass
	cur[1].AllocsPerOp = 100 + AllocSlack               // averaging jitter
	if regs := Check(base, cur, CheckTolerance); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	// A baseline entry without an allocs/op figure gates ns/op only.
	base[0].AllocsPerOp = 0
	cur[0].AllocsPerOp = 1 << 20
	if regs := Check(base, cur, CheckTolerance); len(regs) != 0 {
		t.Fatalf("unrecorded baseline allocs must not gate: %v", regs)
	}
}

func TestGatedProbesExist(t *testing.T) {
	names := map[string]bool{}
	for _, p := range benchProbes(0) {
		names[p.name] = true
	}
	for _, g := range GatedProbes {
		if !names[g] {
			t.Errorf("gated probe %s not in benchProbes", g)
		}
	}
}
