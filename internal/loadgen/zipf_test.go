package loadgen

import (
	"math"
	"testing"
)

// TestZipfDeterminismAndSkew: the sampler is a pure function of its
// input draw, and with s=1 low ranks dominate high ranks.
func TestZipfDeterminismAndSkew(t *testing.T) {
	z1 := NewZipf(1000, 1.0)
	z2 := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	g := &rng{s: splitmix64(99)}
	for i := 0; i < 100000; i++ {
		u := g.unit()
		a, b := z1.Sample(u), z2.Sample(u)
		if a != b {
			t.Fatalf("draw %v: %d != %d", u, a, b)
		}
		counts[a]++
	}
	if counts[0] <= counts[500]*10 {
		t.Fatalf("no zipf skew: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Uniform degenerate case covers the whole range.
	u := NewZipf(10, 0)
	if u.Sample(0.95) != 9 || u.Sample(0.05) != 0 {
		t.Fatalf("uniform sampler broken: %d %d", u.Sample(0.95), u.Sample(0.05))
	}
}

// TestRequestDerivationDeterminism: the op sequence is a pure function
// of (seed, mix) — the property that makes runs reproducible across
// worker counts — and follows the configured mix proportions.
func TestRequestDerivationDeterminism(t *testing.T) {
	mk := func(seed uint64) []Op {
		r := &runner{cfg: Config{Seed: seed, Mix: DefaultMix}}
		var sum float64
		for _, w := range r.cfg.Mix {
			sum += w
		}
		acc := 0.0
		for i, w := range r.cfg.Mix {
			acc += w / sum
			r.cum[i] = acc
		}
		ops := make([]Op, 20000)
		for i := range ops {
			g := &rng{s: splitmix64(r.cfg.Seed^0xdead4badc0ffee) ^ splitmix64(uint64(i))}
			ops[i] = r.pickOp(g.unit())
		}
		return ops
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: op %v vs %v under the same seed", i, a[i], b[i])
		}
	}
	c := mk(8)
	same := 0
	var histo [numOps]int
	for i := range a {
		if a[i] == c[i] {
			same++
		}
		histo[a[i]]++
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical op sequence")
	}
	// Mix proportions hold to within a few percent at n=20000 (weights
	// are relative: normalize before comparing).
	var mixSum float64
	for _, w := range DefaultMix {
		mixSum += w
	}
	for op, weight := range DefaultMix {
		got := float64(histo[op]) / float64(len(a))
		want := weight / mixSum
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("op %v frequency %.3f, normalized mix weight %.3f", Op(op), got, want)
		}
	}
}
