package graph

import (
	"math"
	"testing"
)

func TestGlobalClusteringTriangleVsStar(t *testing.T) {
	tri := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if c := GlobalClusteringCoefficient(tri); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle transitivity = %f, want 1", c)
	}
	star := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	if c := GlobalClusteringCoefficient(star); c != 0 {
		t.Fatalf("star transitivity = %f, want 0", c)
	}
	if c := GlobalClusteringCoefficient(FromEdges(2, nil)); c != 0 {
		t.Fatal("edgeless graph should have 0 transitivity")
	}
}

func TestAvgLocalClustering(t *testing.T) {
	// K4 is fully clustered.
	var edges [][2]int32
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	k4 := FromEdges(4, edges)
	if c := AvgLocalClustering(k4); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K4 local clustering = %f, want 1", c)
	}
	path := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if c := AvgLocalClustering(path); c != 0 {
		t.Fatalf("path local clustering = %f, want 0", c)
	}
}

func TestEffectiveDiameterLine(t *testing.T) {
	// A 10-path has 90th-percentile distance close to its diameter.
	var edges [][2]int32
	for i := int32(0); i < 9; i++ {
		edges = append(edges, [2]int32{i, i + 1})
	}
	g := FromEdges(10, edges)
	d := EffectiveDiameter(g, 0, 1) // all sources
	if d < 5 || d > 9 {
		t.Fatalf("effective diameter = %d, want within [5,9]", d)
	}
	if EffectiveDiameter(FromEdges(3, nil), 0, 1) != 0 {
		t.Fatal("edgeless graph should report 0")
	}
}

func TestEffectiveDiameterCliqueIsOne(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := FromEdges(6, edges)
	if d := EffectiveDiameter(g, 0, 3); d != 1 {
		t.Fatalf("clique effective diameter = %d, want 1", d)
	}
}
