package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"morc/internal/trace"
)

// synthSigs builds a deterministic signature set with a few distinct
// behavior regimes plus mild per-interval jitter, so clustering has real
// structure to find. seed varies the jitter, not the regimes.
func synthSigs(n int, seed uint64) []Signature {
	sigs := make([]Signature, n)
	for i := range sigs {
		phase := (i * 3) / max(n, 1) // three coarse regimes
		j := float64((uint64(i)*6364136223846793005 + seed) % 97)
		sigs[i] = Signature{
			MissRate:  0.1*float64(phase) + j/2000,
			CompRatio: 1.5 + 0.5*float64(phase) + j/3000,
			Footprint: 5 + 2*float64(phase) + j/500,
			WriteFrac: 0.3 + j/4000,
			IPCProxy:  0.8 - 0.2*float64(phase) + j/5000,
		}
	}
	return sigs
}

// TestClusterDeterminism pins that Cluster is a pure function: identical
// (sigs, k, seed) yield byte-identical Plans, and different seeds are
// allowed to differ but must still be internally consistent.
func TestClusterDeterminism(t *testing.T) {
	sigs := synthSigs(24, 7)
	a := Cluster(sigs, 5, 42)
	b := Cluster(sigs, 5, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical inputs produced different Plans:\n%+v\n%+v", a, b)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("identical inputs produced different Plan JSON:\n%s\n%s", aj, bj)
	}
}

// checkPlanInvariants asserts every structural property a Plan promises,
// independent of the clustering quality.
func checkPlanInvariants(t *testing.T, p Plan, n, k int) {
	t.Helper()
	if n == 0 {
		if p.K != 0 {
			t.Fatalf("empty input produced K=%d", p.K)
		}
		return
	}
	if p.K < 1 || p.K > min(k, n) && k >= 1 {
		t.Errorf("K=%d outside [1, min(k=%d, n=%d)]", p.K, k, n)
	}
	if len(p.Assign) != n {
		t.Fatalf("Assign has %d entries, want %d", len(p.Assign), n)
	}
	if len(p.Reps) != p.K || len(p.Pops) != p.K || len(p.Weights) != p.K {
		t.Fatalf("Reps/Pops/Weights lengths %d/%d/%d, want K=%d",
			len(p.Reps), len(p.Pops), len(p.Weights), p.K)
	}
	// Every interval is assigned to a live cluster; populations match.
	popCheck := make([]int, p.K)
	for i, c := range p.Assign {
		if c < 0 || c >= p.K {
			t.Fatalf("interval %d assigned to cluster %d outside [0,%d)", i, c, p.K)
		}
		popCheck[c]++
	}
	popSum := 0
	for c := 0; c < p.K; c++ {
		if popCheck[c] != p.Pops[c] {
			t.Errorf("cluster %d: Pops=%d but %d intervals assigned", c, p.Pops[c], popCheck[c])
		}
		if p.Pops[c] < 1 {
			t.Errorf("cluster %d is empty", c)
		}
		popSum += p.Pops[c]
	}
	if popSum != n {
		t.Errorf("populations sum to %d, want %d", popSum, n)
	}
	var wSum float64
	for _, w := range p.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-12 {
		t.Errorf("weights sum to %v, want 1", wSum)
	}
	// Representatives ascend strictly and belong to their own cluster.
	for c, r := range p.Reps {
		if r < 0 || r >= n {
			t.Fatalf("cluster %d representative %d outside [0,%d)", c, r, n)
		}
		if c > 0 && r <= p.Reps[c-1] {
			t.Errorf("representatives not strictly ascending: %v", p.Reps)
		}
		if p.Assign[r] != c {
			t.Errorf("cluster %d representative %d is assigned to cluster %d", c, r, p.Assign[r])
		}
	}
	// Endpoint anchors: the final interval represents its cluster; the
	// first does too unless it shares a cluster with the final one.
	if last := p.Reps[p.Assign[n-1]]; last != n-1 {
		t.Errorf("final interval's cluster represented by %d, want %d", last, n-1)
	}
	if p.Assign[0] != p.Assign[n-1] {
		if first := p.Reps[p.Assign[0]]; first != 0 {
			t.Errorf("first interval's cluster represented by %d, want 0", first)
		}
	}
}

// TestClusterInvariants is the property sweep: every (n, k, seed,
// jitter) combination must produce a structurally valid Plan.
func TestClusterInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 17, 64} {
		for _, k := range []int{1, 2, 4, 8, 100} {
			for seed := uint64(0); seed < 3; seed++ {
				p := Cluster(synthSigs(n, seed), k, seed)
				checkPlanInvariants(t, p, n, k)
				if !p.Converged && p.Iters != maxIters {
					t.Errorf("n=%d k=%d seed=%d: not converged after %d < %d iters", n, k, seed, p.Iters, maxIters)
				}
			}
		}
	}
}

// TestClusterEdgeCases covers the degenerate inputs Cluster must not
// choke on.
func TestClusterEdgeCases(t *testing.T) {
	if p := Cluster(nil, 4, 1); p.K != 0 || p.Assign != nil {
		t.Errorf("nil input: got %+v, want zero Plan", p)
	}
	// k below 1 clamps to one cluster.
	if p := Cluster(synthSigs(5, 1), 0, 1); p.K != 1 {
		t.Errorf("k=0: got K=%d, want 1", p.K)
	}
	// Identical signatures still cluster (the position dimension keeps
	// the points distinct); the Plan must stay structurally valid.
	same := make([]Signature, 8)
	for i := range same {
		same[i] = Signature{MissRate: 0.5, CompRatio: 2, Footprint: 3, WriteFrac: 0.25, IPCProxy: 0.7}
	}
	checkPlanInvariants(t, Cluster(same, 3, 9), len(same), 3)
}

// TestEstimateErrors sanity-checks the error bars: zero within-cluster
// spread (every interval its own cluster) estimates zero error, and a
// plan that lumps distinct behavior estimates more than a plan that
// separates it.
func TestEstimateErrors(t *testing.T) {
	sigs := synthSigs(12, 3)
	exact := Cluster(sigs, len(sigs), 1)
	eb := exact.EstimateErrors(sigs)
	if eb.IPC != 0 || eb.MissRate != 0 || eb.CompRatio != 0 {
		t.Errorf("singleton clusters should estimate zero error, got %+v", eb)
	}
	coarse := Cluster(sigs, 2, 1).EstimateErrors(sigs)
	fine := Cluster(sigs, 6, 1).EstimateErrors(sigs)
	if coarse.IPC < fine.IPC {
		t.Errorf("coarser clustering estimated less IPC error (%v) than finer (%v)", coarse.IPC, fine.IPC)
	}
}

// profileSpec is a small but non-trivial profiling pass over two real
// workload profiles.
func profileSpec(t *testing.T) Spec {
	t.Helper()
	var programs []trace.Profile
	for _, name := range []string{"gcc", "mcf"} {
		p, err := trace.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, p)
	}
	return Spec{
		Programs:      programs,
		L1Bytes:       32 << 10,
		L1Ways:        4,
		LLCBytes:      512 << 10,
		WarmupInstr:   10_000,
		IntervalInstr: 5_000,
		Intervals:     6,
	}
}

// TestProfileDeterminism pins that Run is a pure function of its Spec:
// two passes produce identical signatures and instruction counts.
func TestProfileDeterminism(t *testing.T) {
	spec := profileSpec(t)
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical Specs produced different Profiles:\n%+v\n%+v", a, b)
	}
	if len(a.Signatures) != spec.Intervals {
		t.Fatalf("got %d signatures, want %d", len(a.Signatures), spec.Intervals)
	}
	if a.Instr == 0 {
		t.Fatal("profile reported zero instructions")
	}
	for i, s := range a.Signatures {
		for j, f := range s.Features() {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
				t.Errorf("signature %d feature %d is %v", i, j, f)
			}
		}
	}
}

// TestCachedMemo pins that Cached returns the memoized Profile on a
// repeat Spec — sweeps must profile each workload once.
func TestCachedMemo(t *testing.T) {
	spec := profileSpec(t)
	spec.Intervals = 4 // distinct key from other tests
	a, err := Cached(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Cached call did not return the memoized Profile")
	}
}

// TestProfileRejects covers Run's input validation.
func TestProfileRejects(t *testing.T) {
	if _, err := Run(context.Background(), Spec{IntervalInstr: 0, Intervals: 3}); err == nil {
		t.Error("zero IntervalInstr accepted")
	}
	if _, err := Run(context.Background(), Spec{IntervalInstr: 100, Intervals: 0}); err == nil {
		t.Error("zero Intervals accepted")
	}
	if _, err := Run(context.Background(), Spec{IntervalInstr: 100, Intervals: 1}); err == nil {
		t.Error("empty Programs accepted")
	}
}
