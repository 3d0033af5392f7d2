package chbench

import (
	"math/rand"

	"proteus/internal/query"
)

// Client is one CH client, bound to a home warehouse as in TPC-C. It
// satisfies the scenario.Client interface.
type Client struct {
	w      *Workload
	r      *rand.Rand
	z      *rand.Zipf
	homeWH int
	qn     int
}

// NewClient builds client i (home warehouse i mod W), whose query cycle
// starts at query i so that concurrent clients spread over the queries.
func (w *Workload) NewClient(i int, r *rand.Rand) *Client {
	return &Client{
		w: w, r: r,
		z:      rand.NewZipf(r, w.cfg.ItemZipfS, 1, uint64(w.cfg.Items-1)),
		homeWH: i % w.cfg.Warehouses,
		qn:     i,
	}
}

// OLTP draws one TPC-C transaction with the standard frequency weights
// (NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%).
func (c *Client) OLTP() *query.Txn {
	switch p := c.r.Intn(100); {
	case p < 45:
		return c.w.NewOrder(c.r, c.z, c.homeWH)
	case p < 88:
		return c.w.Payment(c.r, c.homeWH)
	case p < 92:
		return c.w.OrderStatus(c.r, c.homeWH)
	case p < 96:
		return c.w.Delivery(c.r, c.homeWH)
	default:
		return c.w.StockLevel(c.r, c.homeWH)
	}
}

// OLAP cycles through the analytical queries, as CH clients issue the
// TPC-H sequence round-robin.
func (c *Client) OLAP() *query.Query {
	q := c.w.Query(c.qn, c.r)
	c.qn++
	return q
}
