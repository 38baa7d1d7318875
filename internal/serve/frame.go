package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The partial frame: how an aggPartial crosses the wire from a worker's
// internal endpoint to a router's Dial. One version is accepted — router and
// workers are the same binary — and the layout is canonical, so encoding a
// decoded frame reproduces it byte for byte. All integers little-endian.
//
//	magic   "CCPF"
//	version u8       1
//	flags   u8       bit 0 exact · bit 1 aux column present · bit 2 avg (aux is
//	                 a sum presented as aux/count) · bits 3-4 combiner (0 sum,
//	                 1 min, 2 max) · bits 5-7 zero
//	width   u16      dimensions of the cube
//	ndims   u16      group-by dimensions
//	rows    u32
//	length  u32      bytes that follow this 18-byte header
//	dims    ndims × u16, strictly ascending, each < width
//	tables  per group-by dimension: count u32, then count × (len u32, bytes) —
//	        the distinct components the rows use
//	cols    per group-by dimension: rows × u32, indices into its table
//	counts  rows × i64
//	aux     rows × f64 (IEEE 754 bits), when flags say so
const (
	frameMagic       = "CCPF"
	frameVersion     = 1
	frameHeaderLen   = 18
	frameContentType = "application/x-ccubing-partial"

	flagExact    = 1 << 0
	flagAux      = 1 << 1
	flagAvg      = 1 << 2
	flagAggShift = 3
	flagsKnown   = flagExact | flagAux | flagAvg | 3<<flagAggShift
)

// maxFrameBytes caps the frame a Dial will read from a worker: about ten
// million groups of a two-dimension group-by.
const maxFrameBytes = 256 << 20

// encodeFrame appends p as one frame to buf. This is where string tables come
// to exist: each column's distinct ids are renumbered densely in order of
// first use, and each one's label is looked up once.
func encodeFrame(buf []byte, p *aggPartial) []byte {
	// Everything but the tables has a known size; leave the tables some room.
	buf = slices.Grow(buf, frameHeaderLen+2*len(p.dims)+4*len(p.ids)+8*len(p.counts)+8*len(p.aux)+1024)
	flags := byte(p.agg) << flagAggShift
	if p.exact {
		flags |= flagExact
	}
	if p.aux != nil {
		flags |= flagAux
	}
	if p.avg {
		flags |= flagAvg
	}
	start := len(buf)
	buf = append(buf, frameMagic...)
	buf = append(buf, frameVersion, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.width))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.dims)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.rows()))
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	for _, d := range p.dims {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(d))
	}
	nd, rows := len(p.dims), p.rows()
	dense := make([]uint32, len(p.ids)) // column-major: dimension j's column at dense[j*rows:]
	for j := 0; j < nd; j++ {
		seen := make([]uint32, p.idBound(j)) // id → dense index + 1
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0) // count, patched below
		n := uint32(0)
		for r := 0; r < rows; r++ {
			id := p.ids[r*nd+j]
			if seen[id] == 0 {
				n++
				seen[id] = n
				label := p.label(j, id)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(label)))
				buf = append(buf, label...)
			}
			dense[j*rows+r] = seen[id] - 1
		}
		binary.LittleEndian.PutUint32(buf[at:], n)
	}
	for _, ix := range dense {
		buf = binary.LittleEndian.AppendUint32(buf, ix)
	}
	for _, c := range p.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	for _, a := range p.aux {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
	}
	binary.LittleEndian.PutUint32(buf[start+frameHeaderLen-4:], uint32(len(buf)-start-frameHeaderLen))
	return buf
}

// decodeFrame parses one frame. It copies out everything it keeps, so data
// may be reused, and it sizes every allocation by bytes it has already seen —
// a declared count only ever has to match them.
func decodeFrame(data []byte) (*aggPartial, error) {
	if len(data) < frameHeaderLen || string(data[:4]) != frameMagic {
		return nil, fmt.Errorf("not a partial frame")
	}
	if v := data[4]; v != frameVersion {
		return nil, fmt.Errorf("unsupported partial frame version %d (this build speaks %d)", v, frameVersion)
	}
	flags := data[5]
	p := &aggPartial{
		width:     int(binary.LittleEndian.Uint16(data[6:])),
		agg:       auxCombiner(flags >> flagAggShift & 3),
		avg:       flags&flagAvg != 0,
		exact:     flags&flagExact != 0,
		wireBytes: len(data),
	}
	hasAux := flags&flagAux != 0
	switch {
	case flags&^flagsKnown != 0 || p.agg > combineMax:
		return nil, fmt.Errorf("partial frame has unknown flags %#x", flags)
	case p.avg && !hasAux:
		return nil, fmt.Errorf("partial frame claims avg but carries no aux column")
	case p.avg && p.agg != combineSum:
		return nil, fmt.Errorf("partial frame claims avg with a non-sum combiner")
	}
	nd := int(binary.LittleEndian.Uint16(data[8:]))
	rows := int(binary.LittleEndian.Uint32(data[10:]))
	body := data[frameHeaderLen:]
	if n := binary.LittleEndian.Uint32(data[14:]); uint64(n) != uint64(len(body)) {
		return nil, fmt.Errorf("partial frame declares %d bytes, carries %d", n, len(body))
	}
	if len(body) < 2*nd {
		return nil, fmt.Errorf("partial frame truncated in its dimension list")
	}
	p.dims = make([]int, nd)
	for j := range p.dims {
		d := int(binary.LittleEndian.Uint16(body[2*j:]))
		if d >= p.width || (j > 0 && d <= p.dims[j-1]) {
			return nil, fmt.Errorf("partial frame group-by dimensions are not ascending below %d", p.width)
		}
		p.dims[j] = d
	}
	body = body[2*nd:]

	// Tables: walk once to find where they end, copy that region into one
	// string, and cut every label out of it.
	tables := make([][]string, nd)
	off := 0
	for j := range tables {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("partial frame truncated in its string tables")
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if n > (len(body)-off)/4 {
			return nil, fmt.Errorf("partial frame declares a %d-entry table in %d bytes", n, len(body)-off)
		}
		tables[j] = make([]string, n)
		for i := 0; i < n; i++ {
			if len(body)-off < 4 {
				return nil, fmt.Errorf("partial frame truncated in its string tables")
			}
			l := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if l > len(body)-off {
				return nil, fmt.Errorf("partial frame declares a %d-byte label in %d bytes", l, len(body)-off)
			}
			off += l
		}
	}
	text := string(body[:off])
	off = 0
	for _, table := range tables {
		off += 4
		for i := range table {
			l := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			table[i] = text[off : off+l]
			off += l
		}
	}
	body = body[off:]

	rowBytes := 4*nd + 8
	if hasAux {
		rowBytes += 8
	}
	if uint64(rows)*uint64(rowBytes) != uint64(len(body)) {
		return nil, fmt.Errorf("partial frame declares %d rows of %d bytes, carries %d bytes of columns", rows, rowBytes, len(body))
	}
	// Canonical tables list exactly the components the rows use, in order of
	// first use — what encodeFrame writes.
	p.ids = make([]uint32, rows*nd)
	for j, table := range tables {
		next := uint32(0)
		for r := 0; r < rows; r++ {
			ix := binary.LittleEndian.Uint32(body[4*r:])
			if ix > next || ix >= uint32(len(table)) {
				return nil, fmt.Errorf("partial frame row %d uses table entry %d before entry %d", r, ix, next)
			}
			if ix == next {
				next++
			}
			p.ids[r*nd+j] = ix
		}
		if int(next) != len(table) {
			return nil, fmt.Errorf("partial frame table carries %d entries, rows use %d", len(table), next)
		}
		body = body[4*rows:]
	}
	p.counts = make([]int64, rows)
	for r := range p.counts {
		p.counts[r] = int64(binary.LittleEndian.Uint64(body[8*r:]))
	}
	if hasAux {
		body = body[8*rows:]
		p.aux = make([]float64, rows)
		for r := range p.aux {
			p.aux[r] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*r:]))
		}
	}
	p.tables = tables
	return p, nil
}
