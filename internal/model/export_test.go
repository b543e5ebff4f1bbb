package model

// MappedVertsOffset returns the byte offset of the subnode (verts)
// section in cs's v2 encoding with an algorithm tag of metaLen bytes,
// so external tests can edit a mapped file in place.
func MappedVertsOffset(cs *CompiledSummary, metaLen int) int {
	lo := computeLayout(metaLen, cs.n, cs.total,
		len(cs.edgeA), len(cs.chains), len(cs.incAdj), len(cs.verts))
	return lo.secOff[8]
}

// DefinitionNeighbors returns the neighbor lists of s by the model's
// definition (oracle_test.go), for external tests on small summaries.
func DefinitionNeighbors(s *Summary) func(v int32) []int32 {
	return newOracle(s).neighbors
}
