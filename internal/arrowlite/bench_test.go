package arrowlite

import (
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func benchBatch(rows int) (*types.Schema, *column.Page) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	p := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		p.AppendRow(
			types.IntValue(int64(i)),
			types.FloatValue(float64(i)/3),
			types.StringValue("value"),
		)
	}
	return schema, p
}

func BenchmarkEncode(b *testing.B) {
	_, page := benchBatch(10000)
	var msg []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if msg, err = AppendBatch(msg[:0], page); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(msg)))
	}
}

func BenchmarkDecode(b *testing.B) {
	schema, page := benchBatch(10000)
	msg, _ := AppendBatch(nil, page)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchMsg(msg, schema); err != nil {
			b.Fatal(err)
		}
	}
}
