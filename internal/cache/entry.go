package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"perspector/internal/perf"
)

// An entry is one flat little-endian record (see the package comment):
//
//	magic      [8]byte  entryMagic
//	suite      u32 length, then the name's bytes
//	workloads  u32 count, then per workload:
//	  name     u32 length, then the name's bytes
//	  totals   NumCounters × u64
//	  interval u64
//	  series   NumCounters × (u32 count, then count × u64 IEEE-754 bits)
//	crc        u32 CRC-32C of every byte before it
const (
	entryMagic = "PSPMEAS\x01"
	crcLen     = 4
	// fixedLen is a workload's totals and interval.
	fixedLen = 8 * (int(perf.NumCounters) + 1)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errCorrupt = errors.New("cache: corrupt entry")

// encodeEntry renders m as one entry, in a buffer allocated once at the
// entry's exact size.
func encodeEntry(m *perf.SuiteMeasurement) ([]byte, error) {
	size, err := entrySize(m)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, entryMagic...)
	buf = appendName(buf, m.Suite)
	buf = le.AppendUint32(buf, uint32(len(m.Workloads)))
	for i := range m.Workloads {
		w := &m.Workloads[i]
		buf = appendName(buf, w.Workload)
		for _, v := range w.Totals {
			buf = le.AppendUint64(buf, v)
		}
		buf = le.AppendUint64(buf, w.Series.Interval)
		for _, s := range w.Series.Samples {
			buf = le.AppendUint32(buf, uint32(len(s)))
			for _, v := range s {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

func appendName(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// entrySize returns the encoded size of m, or an error if a length does
// not fit its u32 field.
func entrySize(m *perf.SuiteMeasurement) (int, error) {
	size := len(entryMagic) + 4 + len(m.Suite) + 4 + crcLen
	longest := max(len(m.Suite), len(m.Workloads))
	for i := range m.Workloads {
		w := &m.Workloads[i]
		size += 4 + len(w.Workload) + fixedLen
		longest = max(longest, len(w.Workload))
		for _, s := range w.Series.Samples {
			size += 4 + 8*len(s)
			longest = max(longest, len(s))
		}
	}
	if uint64(longest) > math.MaxUint32 {
		return 0, fmt.Errorf("cache: measurement %q has a length too large for an entry", m.Suite)
	}
	return size, nil
}

// readBufs recycles Get's read buffers: a warm compare reads six
// entries per op, and the decoded measurement keeps none of the bytes.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readEntry reads and decodes the entry file at path. A file that cannot
// be opened returns the open error; any other failure returns errCorrupt.
func readEntry(path string) (*perf.SuiteMeasurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, errCorrupt
	}
	size := fi.Size()
	if size < int64(len(entryMagic)+crcLen) || size > math.MaxInt {
		return nil, errCorrupt
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < size {
		*bp = make([]byte, size)
	}
	buf := (*bp)[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, errCorrupt
	}
	return decodeEntry(buf)
}

// decodeEntry decodes one entry and validates the measurement. It checks
// the checksum, then walks the layout once to check every length against
// the bytes left and to size the allocations, then fills the
// measurement. Every series lives in one slab, each sliced to its own
// capacity so an append to one reallocates instead of overwriting the
// next. The result shares no memory with buf.
func decodeEntry(buf []byte) (*perf.SuiteMeasurement, error) {
	if len(buf) < len(entryMagic)+crcLen || string(buf[:len(entryMagic)]) != entryMagic {
		return nil, errCorrupt
	}
	end := len(buf) - crcLen
	if crc32.Checksum(buf[:end], castagnoli) != binary.LittleEndian.Uint32(buf[end:]) {
		return nil, errCorrupt
	}
	body := buf[len(entryMagic):end]
	workloads, floats, ok := walkEntry(body, nil, nil)
	if !ok {
		return nil, errCorrupt
	}
	sm := &perf.SuiteMeasurement{Workloads: make([]perf.Measurement, workloads)}
	var slab []float64
	if floats > 0 {
		slab = make([]float64, floats)
	}
	walkEntry(body, sm, slab)
	if sm.Validate() != nil {
		return nil, errCorrupt
	}
	return sm, nil
}

// walkEntry walks an entry body. With sm nil it only checks that every
// length fits the bytes left and that none are left over, and counts the
// workloads and the series floats. Otherwise it fills sm, whose
// Workloads the counts sized, taking the series from slab in order.
func walkEntry(body []byte, sm *perf.SuiteMeasurement, slab []float64) (workloads, floats uint64, ok bool) {
	r := entryReader{b: body}
	suite := r.next(r.u32())
	workloads = r.u32()
	if sm != nil {
		sm.Suite = string(suite)
	}
	for w := uint64(0); w < workloads && !r.bad; w++ {
		name := r.next(r.u32())
		fixed := r.next(uint64(fixedLen))
		var m *perf.Measurement
		if sm != nil {
			m = &sm.Workloads[w]
			m.Workload = string(name)
			for c := range m.Totals {
				m.Totals[c] = binary.LittleEndian.Uint64(fixed[8*c:])
			}
			m.Series.Interval = binary.LittleEndian.Uint64(fixed[8*perf.NumCounters:])
		}
		for c := 0; c < int(perf.NumCounters); c++ {
			k := r.u32()
			bits := r.next(8 * k)
			if m != nil && k > 0 {
				s := slab[floats : floats+k : floats+k]
				for i := range s {
					s[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits))
					bits = bits[8:]
				}
				m.Series.Samples[c] = s
			}
			floats += k
		}
	}
	return workloads, floats, !r.bad && len(r.b) == 0
}

// entryReader consumes an entry body front to back. A read past the end
// sets bad, which sticks: later reads return nothing.
type entryReader struct {
	b   []byte
	bad bool
}

// next consumes n bytes.
func (r *entryReader) next(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// u32 consumes a little-endian u32.
func (r *entryReader) u32() uint64 {
	p := r.next(4)
	if p == nil {
		return 0
	}
	return uint64(binary.LittleEndian.Uint32(p))
}
