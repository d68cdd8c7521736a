package objstore

import (
	"context"
	"encoding/csv"
	"fmt"
	"strings"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Client talks to an object store server over RPC.
type Client struct {
	rpc *rpc.Client
}

// NewClient wraps an RPC client.
func NewClient(addr string) *Client { return &Client{rpc: rpc.Dial(addr)} }

// Close releases connections.
func (c *Client) Close() error { return c.rpc.Close() }

// Meter exposes the transport meter (data-movement accounting).
func (c *Client) Meter() *rpc.Meter { return &c.rpc.Meter }

// Put uploads an object.
func (c *Client) Put(ctx context.Context, bucket, key string, data []byte) error {
	e := protowire.NewEncoder()
	e.String(1, bucket)
	e.String(2, key)
	e.Bytes(3, data)
	_, err := c.rpc.Call(ctx, MethodPut, e.Encoded())
	return err
}

// Get downloads a whole object, returning the data and storage-side work
// stats.
func (c *Client) Get(ctx context.Context, bucket, key string) ([]byte, WorkStats, error) {
	e := protowire.NewEncoder()
	e.String(1, bucket)
	e.String(2, key)
	resp, err := c.rpc.Call(ctx, MethodGet, e.Encoded())
	if err != nil {
		return nil, WorkStats{}, err
	}
	return decodeDataStats(resp)
}

// Select runs the S3 Select-like path: project columns (by name; empty =
// all) and filter by pred (ordinals over the object's full schema; nil =
// no filter). It returns the raw CSV payload plus storage work stats.
func (c *Client) Select(ctx context.Context, bucket, key string, columns []string, pred expr.Expr) ([]byte, WorkStats, error) {
	e := protowire.NewEncoder()
	e.String(1, bucket)
	e.String(2, key)
	for _, col := range columns {
		e.String(3, col)
	}
	if pred != nil {
		if err := substrait.EncodeExpr(e, 4, pred); err != nil {
			return nil, WorkStats{}, err
		}
	}
	resp, err := c.rpc.Call(ctx, MethodSelect, e.Encoded())
	if err != nil {
		return nil, WorkStats{}, err
	}
	return decodeDataStats(resp)
}

func decodeDataStats(resp []byte) ([]byte, WorkStats, error) {
	d := protowire.NewDecoder(resp)
	var data []byte
	var st WorkStats
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, st, err
		}
		switch f {
		case 1:
			data, err = d.Bytes()
		case 2:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				st, err = decodeStats(m)
			}
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, st, err
		}
	}
	return data, st, nil
}

// ParseSelectCSV converts a Select response body into a columnar page.
// Column types are resolved from the provided schema by header name. The
// returned meter units reflect the row-oriented parse cost that the paper
// attributes to CSV results (one unit per cell).
func ParseSelectCSV(data []byte, schema *types.Schema) (*column.Page, float64, error) {
	r := csv.NewReader(strings.NewReader(string(data)))
	records, err := r.ReadAll()
	if err != nil {
		return nil, 0, fmt.Errorf("objstore: parsing select CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, 0, fmt.Errorf("objstore: select CSV missing header")
	}
	header := records[0]
	cols := make([]types.Column, len(header))
	for i, name := range header {
		idx := schema.IndexOf(name)
		if idx < 0 {
			return nil, 0, fmt.Errorf("objstore: select CSV has unknown column %q", name)
		}
		cols[i] = schema.Columns[idx]
	}
	out := column.NewPage(types.NewSchema(cols...))
	var units float64
	for _, rec := range records[1:] {
		if len(rec) != len(cols) {
			return nil, 0, fmt.Errorf("objstore: select CSV row has %d fields, want %d", len(rec), len(cols))
		}
		row := make([]types.Value, len(cols))
		for i, field := range rec {
			v, err := types.ParseValue(field, cols[i].Type)
			if err != nil {
				return nil, 0, err
			}
			row[i] = v
		}
		out.AppendRow(row...)
		units += float64(len(cols))
	}
	return out, units, nil
}
