package arrowlite

import (
	"testing"
	"testing/quick"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func allKindsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "d", Type: types.Date},
	)
}

func samplePage() *column.Page {
	p := column.NewPage(allKindsSchema())
	p.AppendRow(types.IntValue(1), types.FloatValue(0.5), types.StringValue("alpha"), types.BoolValue(true), types.DateValue(100))
	p.AppendRow(types.IntValue(-2), types.FloatValue(-1.25), types.StringValue(""), types.BoolValue(false), types.DateValue(0))
	p.AppendRow(types.NullValue(types.Int64), types.NullValue(types.Float64), types.NullValue(types.String), types.NullValue(types.Bool), types.NullValue(types.Date))
	p.AppendRow(types.IntValue(9), types.FloatValue(9.75), types.StringValue("omega"), types.BoolValue(true), types.DateValue(20000))
	return p
}

func pagesEqual(t *testing.T, a, b *column.Page) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("dims mismatch: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			if !types.Equal(ra[c], rb[c]) {
				t.Errorf("row %d col %d: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
}

// encode renders a schema message and one batch message per page, the
// chunks the OCS result stream carries.
func encode(t testing.TB, schema *types.Schema, pages ...*column.Page) (schemaMsg []byte, batchMsgs [][]byte) {
	t.Helper()
	schemaMsg, err := AppendSchema(nil, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		msg, err := AppendBatch(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		batchMsgs = append(batchMsgs, msg)
	}
	return schemaMsg, batchMsgs
}

// roundTrip encodes the schema and pages and decodes them back.
func roundTrip(t testing.TB, schema *types.Schema, pages ...*column.Page) (*types.Schema, []*column.Page) {
	t.Helper()
	schemaMsg, batchMsgs := encode(t, schema, pages...)
	got, err := DecodeSchemaMsg(schemaMsg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*column.Page
	for _, msg := range batchMsgs {
		p, err := DecodeBatchMsg(msg, got)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return got, out
}

func TestRoundTripSingleBatch(t *testing.T) {
	p := samplePage()
	schema, pages := roundTrip(t, p.Schema, p)
	if !schema.Equal(p.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", schema, p.Schema)
	}
	if len(pages) != 1 {
		t.Fatalf("got %d pages", len(pages))
	}
	pagesEqual(t, p, pages[0])
}

func TestRoundTripMultipleBatches(t *testing.T) {
	p := samplePage()
	_, pages := roundTrip(t, p.Schema, p, p, p)
	if len(pages) != 3 {
		t.Fatalf("got %d pages", len(pages))
	}
	for _, q := range pages {
		pagesEqual(t, p, q)
	}
}

func TestEmptyBatchAndEmptyStream(t *testing.T) {
	s := allKindsSchema()
	_, pages := roundTrip(t, s, column.NewPage(s))
	if len(pages) != 1 || pages[0].NumRows() != 0 || pages[0].NumCols() != s.Len() {
		t.Errorf("empty batch round trip wrong: %v", pages)
	}
	// A result with no batches at all: the schema message alone.
	schema, pages := roundTrip(t, s)
	if len(pages) != 0 || !schema.Equal(s) {
		t.Errorf("no-batch result wrong: %v %v", schema, pages)
	}
}

// TestStreamingReusedBuffer encodes every message into one pooled buffer,
// as a storage node does per stream chunk, and checks that pages decoded
// from earlier contents survive the buffer being overwritten.
func TestStreamingReusedBuffer(t *testing.T) {
	p := samplePage()
	buf := GetBuf()
	defer PutBuf(buf)
	msg, err := AppendSchema((*buf)[:0], p.Schema)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := DecodeSchemaMsg(msg)
	if err != nil {
		t.Fatal(err)
	}
	var pages []*column.Page
	for i := 0; i < 3; i++ {
		msg, err := AppendBatch((*buf)[:0], p)
		if err != nil {
			t.Fatal(err)
		}
		*buf = msg
		got, err := DecodeBatchMsg(msg, schema)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, got)
		for j := range msg {
			msg[j] = 0xAA
		}
	}
	if !schema.Equal(p.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", schema, p.Schema)
	}
	for _, got := range pages {
		pagesEqual(t, p, got)
	}
}

func TestSchemaArityMismatch(t *testing.T) {
	p := samplePage()
	narrow := types.NewSchema(types.Column{Name: "only", Type: types.Int64})
	_, msgs := encode(t, p.Schema, p)
	if _, err := DecodeBatchMsg(msgs[0], narrow); err == nil {
		t.Error("five-column batch decoded against a one-column schema")
	}
	one := column.NewPage(narrow)
	one.AppendRow(types.IntValue(7))
	_, msgs = encode(t, narrow, one)
	if _, err := DecodeBatchMsg(msgs[0], p.Schema); err == nil {
		t.Error("one-column batch decoded against a five-column schema")
	}
}

// TestCorruptStreams cuts the schema message and the batch message at
// every byte: each truncation must return an error, never panic or
// succeed. Hostile inputs that claim huge counts must error without
// sizing anything from the claim.
func TestCorruptStreams(t *testing.T) {
	p := samplePage()
	schemaMsg, msgs := encode(t, p.Schema, p)
	batchMsg := msgs[0]
	for cut := 0; cut < len(schemaMsg); cut++ {
		if _, err := DecodeSchemaMsg(schemaMsg[:cut]); err == nil {
			t.Errorf("schema message cut at %d/%d accepted", cut, len(schemaMsg))
		}
	}
	for cut := 0; cut < len(batchMsg); cut++ {
		if _, err := DecodeBatchMsg(batchMsg[:cut], p.Schema); err == nil {
			t.Errorf("batch message cut at %d/%d accepted", cut, len(batchMsg))
		}
	}
	// Trailing bytes are corruption too.
	if _, err := DecodeSchemaMsg(append(append([]byte(nil), schemaMsg...), 0)); err == nil {
		t.Error("schema message with a trailing byte accepted")
	}
	if _, err := DecodeBatchMsg(append(append([]byte(nil), batchMsg...), 0), p.Schema); err == nil {
		t.Error("batch message with a trailing byte accepted")
	}
	// An unknown kind code in the first column.
	bad := append([]byte(nil), schemaMsg...)
	bad[4] = 0xFF
	if _, err := DecodeSchemaMsg(bad); err == nil {
		t.Error("unknown kind code accepted")
	}
	// A 15-byte schema message whose column count ("ARL1" read as a u32)
	// claims ~827M columns.
	if _, err := DecodeSchemaMsg([]byte("ARL1\x01\x00\xea\xff`\x03\x01\x00\x00\x00\xff")); err == nil {
		t.Error("15-byte hostile schema message accepted")
	}
}

func TestUnsupportedKind(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "u", Type: types.Unknown})
	if _, err := AppendSchema(nil, s); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: random int/float/string pages round-trip exactly, including a
// random null pattern.
func TestQuickRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "c", Type: types.String},
	)
	f := func(ints []int64, floats []float64, strs []string, nullMask uint32) bool {
		n := len(ints)
		if len(floats) < n {
			n = len(floats)
		}
		if len(strs) < n {
			n = len(strs)
		}
		p := column.NewPage(schema)
		for i := 0; i < n; i++ {
			iv := types.IntValue(ints[i])
			fv := types.FloatValue(floats[i])
			sv := types.StringValue(strs[i])
			if nullMask>>(uint(i)%32)&1 == 1 {
				iv = types.NullValue(types.Int64)
			}
			p.AppendRow(iv, fv, sv)
		}
		msg, err := AppendBatch(nil, p)
		if err != nil {
			return false
		}
		got, err := DecodeBatchMsg(msg, schema)
		if err != nil || got.NumRows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			ra, rb := p.Row(i), got.Row(i)
			for c := range ra {
				// NaN compares equal under types.Compare's total order.
				if !types.Equal(ra[c], rb[c]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
