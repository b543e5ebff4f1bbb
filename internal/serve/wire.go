package serve

// Compact binary framing for the batched-neighbors endpoint
// (POST /batch/neighbors). JSON encoding dominates the cost of large
// neighbor batches — every id is re-rendered as decimal text and the
// response allocates per vertex — so the federation fan-out path
// (internal/fed scatter-gathering up to MaxBatchItems ids per shard per
// request) speaks this fixed-width little-endian format instead. The
// codec is symmetric and exported so the coordinator's client decodes
// with the same code the shard server encodes with.
//
//	request:  "NBRQ" | u32 count | count × u32 vertex ids
//	response: "NBRS" | u32 count | per id: u32 degree | degree × u32 ids
//
// The response lists neighborhoods in request order; ids are not
// repeated. All integers are little-endian uint32 (vertex ids are
// non-negative int32s, so the conversion is lossless).

import (
	"encoding/binary"
	"fmt"
)

const (
	batchReqMagic  = "NBRQ"
	batchRespMagic = "NBRS"
)

// EncodeNeighborsRequest frames a batch of vertex ids for
// POST /batch/neighbors.
func EncodeNeighborsRequest(ids []int32) []byte {
	buf := make([]byte, 0, 8+4*len(ids))
	buf = append(buf, batchReqMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, v := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// DecodeNeighborsRequestInto parses a binary batch request into dst's
// capacity (the serving hot path reuses pooled slices across requests
// instead of allocating per batch), enforcing the item cap. Every id is
// validated to be a non-negative int32; vertex range checking against
// the served model is the caller's job.
func DecodeNeighborsRequestInto(dst []int32, data []byte, maxItems int) ([]int32, error) {
	if len(data) < 8 || string(data[:4]) != batchReqMagic {
		return nil, fmt.Errorf("bad batch request framing")
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if int(count) > maxItems {
		return nil, fmt.Errorf("batch of %d exceeds %d vertices", count, maxItems)
	}
	if uint64(len(data)) != 8+4*uint64(count) {
		return nil, fmt.Errorf("batch request length %d does not match count %d", len(data), count)
	}
	ids := dst[:0]
	if cap(ids) < int(count) {
		ids = make([]int32, count)
	} else {
		ids = ids[:count]
	}
	for i := range ids {
		raw := binary.LittleEndian.Uint32(data[8+4*i:])
		if raw > 1<<31-1 {
			return nil, fmt.Errorf("vertex id %d overflows int32", raw)
		}
		ids[i] = int32(raw)
	}
	return ids, nil
}

// AppendNeighborsResponseHeader starts a binary batch response for
// count neighborhoods.
func AppendNeighborsResponseHeader(buf []byte, count int) []byte {
	buf = append(buf, batchRespMagic...)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendNeighborsResponseList appends one neighborhood to a binary
// batch response.
func AppendNeighborsResponseList(buf []byte, nbrs []int32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nbrs)))
	for _, v := range nbrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// DecodeNeighborsResponse parses a binary batch response into one
// neighbor list per requested id, in request order. want is the number
// of neighborhoods the request asked for; a response with any other
// count is rejected.
func DecodeNeighborsResponse(data []byte, want int) ([][]int32, error) {
	if len(data) < 8 || string(data[:4]) != batchRespMagic {
		return nil, fmt.Errorf("bad batch response framing")
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	if int(count) != want {
		return nil, fmt.Errorf("batch response holds %d neighborhoods, want %d", count, want)
	}
	out := make([][]int32, count)
	off := 8
	for i := range out {
		if off+4 > len(data) {
			return nil, fmt.Errorf("batch response truncated at neighborhood %d", i)
		}
		deg := binary.LittleEndian.Uint32(data[off:])
		off += 4
		need := int(deg) * 4
		if deg > 1<<28 || off+need > len(data) {
			return nil, fmt.Errorf("batch response truncated in neighborhood %d (degree %d)", i, deg)
		}
		nbrs := make([]int32, deg)
		for j := range nbrs {
			raw := binary.LittleEndian.Uint32(data[off+4*j:])
			if raw > 1<<31-1 {
				return nil, fmt.Errorf("neighbor id %d overflows int32", raw)
			}
			nbrs[j] = int32(raw)
		}
		off += need
		out[i] = nbrs
	}
	if off != len(data) {
		return nil, fmt.Errorf("batch response has %d trailing bytes", len(data)-off)
	}
	return out, nil
}
