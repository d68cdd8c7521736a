// Package arrowlite implements Apache Arrow-like columnar IPC messages: a
// schema message followed by record batches, each encoded as validity
// bitmaps plus typed little-endian value buffers (offsets + data for
// strings). OCS returns query results in this format and the Presto-OCS
// connector's PageSourceProvider deserializes it back into engine pages,
// mirroring the paper's Arrow result path. The RPC stream frames the
// messages: its first chunk carries the schema message (AppendSchema /
// DecodeSchemaMsg) and every later chunk one batch message (AppendBatch /
// DecodeBatchMsg).
//
// Message layout:
//
//	schema: u32 ncols | repeated: u8 kind | u32 nameLen | name
//	batch:  u32 nrows | per column: u32 bitmapLen | validity bitmap | values
//
// Values are nrows x u64 for Int64, Float64 and Date, a packed bitmap for
// Bool, and (nrows+1) x u32 offsets then the concatenated bytes for
// String. All integers are little-endian. Bitmaps are LSB-first packed
// bits; in a validity bitmap 1 = valid (Arrow convention).
package arrowlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// ErrCorrupt reports a malformed message.
var ErrCorrupt = errors.New("arrowlite: corrupt message")

// kindCode maps types.Kind to a stable on-wire code.
func kindCode(k types.Kind) (uint8, error) {
	switch k {
	case types.Int64:
		return 1, nil
	case types.Float64:
		return 2, nil
	case types.String:
		return 3, nil
	case types.Bool:
		return 4, nil
	case types.Date:
		return 5, nil
	default:
		return 0, fmt.Errorf("arrowlite: unsupported kind %v", k)
	}
}

func codeKind(c uint8) (types.Kind, error) {
	switch c {
	case 1:
		return types.Int64, nil
	case 2:
		return types.Float64, nil
	case 3:
		return types.String, nil
	case 4:
		return types.Bool, nil
	case 5:
		return types.Date, nil
	default:
		return types.Unknown, fmt.Errorf("arrowlite: unknown kind code %d", c)
	}
}

// AppendSchema appends an encoded schema message to dst and returns the
// extended slice. It is the allocation-free form of the schema encoder,
// usable with GetBuf for streaming one message per RPC chunk.
func AppendSchema(dst []byte, s *types.Schema) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Len()))
	for _, c := range s.Columns {
		code, err := kindCode(c.Type)
		if err != nil {
			return nil, err
		}
		dst = append(dst, code)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Name)))
		dst = append(dst, c.Name...)
	}
	return dst, nil
}

// DecodeSchemaMsg decodes one schema message (the payload of the first
// stream chunk in the OCS result protocol).
func DecodeSchemaMsg(b []byte) (*types.Schema, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Every column takes at least 5 bytes; bound the count by the bytes
	// left before sizing anything from it.
	if uint64(n)*5 > uint64(len(b)) {
		return nil, ErrCorrupt
	}
	cols := make([]types.Column, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 5 {
			return nil, ErrCorrupt
		}
		kind, err := codeKind(b[0])
		if err != nil {
			return nil, err
		}
		nameLen := binary.LittleEndian.Uint32(b[1:5])
		b = b[5:]
		if uint32(len(b)) < nameLen {
			return nil, ErrCorrupt
		}
		cols = append(cols, types.Column{Name: string(b[:nameLen]), Type: kind})
		b = b[nameLen:]
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return types.NewSchema(cols...), nil
}

// AppendBatch appends one encoded record batch message to dst and returns
// the extended slice. Bitmaps are packed directly into dst with no
// intermediate slices, so pairing this with GetBuf/PutBuf makes the
// per-chunk serialize path allocation-free in steady state.
func AppendBatch(dst []byte, page *column.Page) ([]byte, error) {
	n := page.NumRows()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, v := range page.Vectors {
		// Validity bitmap: 1 = valid, packed LSB-first straight into dst.
		bmLen := (n + 7) / 8
		dst = binary.LittleEndian.AppendUint32(dst, uint32(bmLen))
		base := len(dst)
		for i := 0; i < bmLen; i++ {
			dst = append(dst, 0)
		}
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				dst[base+i/8] |= 1 << (uint(i) % 8)
			}
		}

		switch v.Kind {
		case types.Int64, types.Date:
			for _, x := range v.Ints {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
			}
		case types.Float64:
			for _, x := range v.Floats {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		case types.Bool:
			bb := (len(v.Bools) + 7) / 8
			base := len(dst)
			for i := 0; i < bb; i++ {
				dst = append(dst, 0)
			}
			for i, b := range v.Bools {
				if b {
					dst[base+i/8] |= 1 << (uint(i) % 8)
				}
			}
		case types.String:
			// Offsets (n+1 x u32) then concatenated bytes.
			off := uint32(0)
			dst = binary.LittleEndian.AppendUint32(dst, off)
			for _, s := range v.Strings {
				off += uint32(len(s))
				dst = binary.LittleEndian.AppendUint32(dst, off)
			}
			for _, s := range v.Strings {
				dst = append(dst, s...)
			}
		default:
			return nil, fmt.Errorf("arrowlite: unsupported vector kind %v", v.Kind)
		}
	}
	return dst, nil
}

// DecodeBatchMsg decodes one record batch message against a known schema.
// It is safe to call on a pooled or otherwise reused buffer: every value
// (including strings) is copied out of b.
func DecodeBatchMsg(b []byte, schema *types.Schema) (*column.Page, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	page := column.NewPage(schema)
	for ci, col := range schema.Columns {
		if len(b) < 4 {
			return nil, ErrCorrupt
		}
		bmLen := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < bmLen || bmLen < (n+7)/8 {
			return nil, ErrCorrupt
		}
		// Read validity bits in place instead of unpacking to a []bool.
		bm := b[:bmLen]
		valid := func(i int) bool { return bm[i/8]&(1<<(uint(i)%8)) != 0 }
		b = b[bmLen:]
		vec := page.Vectors[ci]
		switch col.Type {
		case types.Int64, types.Date:
			if len(b) < 8*n {
				return nil, ErrCorrupt
			}
			for i := 0; i < n; i++ {
				x := int64(binary.LittleEndian.Uint64(b[8*i:]))
				appendMaybeNull(vec, valid(i), types.Value{Kind: col.Type, I: x})
			}
			b = b[8*n:]
		case types.Float64:
			if len(b) < 8*n {
				return nil, ErrCorrupt
			}
			for i := 0; i < n; i++ {
				x := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
				appendMaybeNull(vec, valid(i), types.FloatValue(x))
			}
			b = b[8*n:]
		case types.Bool:
			bb := (n + 7) / 8
			if len(b) < bb {
				return nil, ErrCorrupt
			}
			vals := b[:bb]
			for i := 0; i < n; i++ {
				x := vals[i/8]&(1<<(uint(i)%8)) != 0
				appendMaybeNull(vec, valid(i), types.BoolValue(x))
			}
			b = b[bb:]
		case types.String:
			// Offsets (n+1 x u32) read on the fly, no materialized slice.
			need := 4 * (n + 1)
			if len(b) < need {
				return nil, ErrCorrupt
			}
			offs := b[:need]
			b = b[need:]
			total := int(binary.LittleEndian.Uint32(offs[4*n:]))
			if len(b) < total {
				return nil, ErrCorrupt
			}
			data := b[:total]
			b = b[total:]
			prev := binary.LittleEndian.Uint32(offs)
			for i := 0; i < n; i++ {
				cur := binary.LittleEndian.Uint32(offs[4*(i+1):])
				if prev > cur || int(cur) > total {
					return nil, ErrCorrupt
				}
				s := string(data[prev:cur])
				appendMaybeNull(vec, valid(i), types.StringValue(s))
				prev = cur
			}
		default:
			return nil, fmt.Errorf("arrowlite: unsupported kind %v", col.Type)
		}
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return page, nil
}

func appendMaybeNull(vec *column.Vector, valid bool, v types.Value) {
	if !valid {
		vec.Append(types.NullValue(vec.Kind))
		return
	}
	vec.Append(v)
}
