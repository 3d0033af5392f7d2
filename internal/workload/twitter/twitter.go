// Package twitter implements the Twitter benchmark of §6.1: a social
// networking schema with heavily skewed many-to-many relationships among
// users, tweets and followers. The transaction set follows the paper's
// extended workload: OLTP transactions (insert tweet, follow user, update
// profile / follower counts) plus analytical queries (timeline join,
// tweets within a timespan, tweets per user, prefix search, follower
// leaders, recent activity).
package twitter

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Config sizes the social graph (paper: 10M users / 80 GB).
type Config struct {
	Users          int
	InitialTweets  int
	MaxTweets      int
	FollowsPerUser int // follow slots per user
	InitialFollows int // loaded follows per user
	ZipfS          float64
	Partitions     int
	TweetTextLen   int
}

// DefaultConfig returns a laptop-scale graph.
func DefaultConfig() Config {
	return Config{
		Users: 500, InitialTweets: 3000, MaxTweets: 200000,
		FollowsPerUser: 20, InitialFollows: 8,
		ZipfS: 1.4, TweetTextLen: 24,
	}
}

// Workload is a loaded Twitter database bound to an engine.
type Workload struct {
	cfg Config
	e   *cluster.Engine

	users   *schema.Table
	tweets  *schema.Table
	follows *schema.Table

	nextTweet  atomic.Int64
	followSlot []atomic.Int64 // per-user next follow slot
	epoch      time.Time
}

// Tables exposes the table handles.
func (w *Workload) Tables() (users, tweets, follows *schema.Table) {
	return w.users, w.tweets, w.follows
}

// Setup creates and loads the social graph.
func Setup(e *cluster.Engine, cfg Config) (*Workload, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("twitter: bad config %+v", cfg)
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = len(e.Sites) * 2
	}
	w := &Workload{cfg: cfg, e: e, epoch: time.Now().Add(-24 * time.Hour)}
	w.followSlot = make([]atomic.Int64, cfg.Users)

	var err error
	mk := func(name string, cols []schema.Column, maxRows schema.RowID, parts int) *schema.Table {
		if err != nil {
			return nil
		}
		var tbl *schema.Table
		tbl, err = e.CreateTable(cluster.TableSpec{
			Name: name, Cols: cols, MaxRows: maxRows, Partitions: parts,
			PlaceAt: func(p int) simnet.SiteID {
				return simnet.SiteID(p % len(e.Sites))
			},
		})
		return tbl
	}
	w.users = mk("users", []schema.Column{
		{Name: "uid", Kind: types.KindInt64},
		{Name: "name", Kind: types.KindString, AvgSize: 12},
		{Name: "followers", Kind: types.KindInt64},
		{Name: "tweets", Kind: types.KindInt64},
	}, schema.RowID(cfg.Users), cfg.Partitions)
	w.tweets = mk("tweets", []schema.Column{
		{Name: "tid", Kind: types.KindInt64},
		{Name: "tuid", Kind: types.KindInt64},
		{Name: "text", Kind: types.KindString, AvgSize: float64(cfg.TweetTextLen)},
		{Name: "ts", Kind: types.KindTime},
	}, schema.RowID(cfg.MaxTweets), cfg.Partitions)
	w.follows = mk("follows", []schema.Column{
		{Name: "follower", Kind: types.KindInt64},
		{Name: "followee", Kind: types.KindInt64},
		{Name: "since", Kind: types.KindTime},
	}, schema.RowID(cfg.Users*cfg.FollowsPerUser), cfg.Partitions)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(21))
	zip := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Users-1))

	var rows []schema.Row
	for u := 0; u < cfg.Users; u++ {
		rows = append(rows, schema.Row{ID: schema.RowID(u), Vals: []types.Value{
			types.NewInt64(int64(u)),
			types.NewString(fmt.Sprintf("user-%d", u)),
			types.NewInt64(0), types.NewInt64(0),
		}})
	}
	if err := e.LoadRows(context.Background(), w.users.ID, rows); err != nil {
		return nil, err
	}

	rows = rows[:0]
	for t := 0; t < cfg.InitialTweets; t++ {
		u := int(zip.Uint64())
		ts := w.epoch.Add(time.Duration(t) * time.Minute)
		rows = append(rows, schema.Row{ID: schema.RowID(t), Vals: []types.Value{
			types.NewInt64(int64(t)), types.NewInt64(int64(u)),
			types.NewString(tweetText(rng, cfg.TweetTextLen)),
			types.NewTime(ts),
		}})
	}
	if err := e.LoadRows(context.Background(), w.tweets.ID, rows); err != nil {
		return nil, err
	}
	w.nextTweet.Store(int64(cfg.InitialTweets))

	rows = rows[:0]
	for u := 0; u < cfg.Users; u++ {
		seen := map[int]bool{}
		for k := 0; k < cfg.InitialFollows; k++ {
			followee := int(zip.Uint64()) // popular users gain followers
			if seen[followee] {
				continue
			}
			seen[followee] = true
			slot := w.followSlot[u].Add(1) - 1
			rows = append(rows, schema.Row{ID: w.followRow(u, slot), Vals: []types.Value{
				types.NewInt64(int64(u)), types.NewInt64(int64(followee)),
				types.NewTime(w.epoch),
			}})
		}
	}
	if err := e.LoadRows(context.Background(), w.follows.ID, rows); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Workload) followRow(user int, slot int64) schema.RowID {
	return schema.RowID(int64(user)*int64(w.cfg.FollowsPerUser) + slot)
}

const tweetAlpha = "hello world proteus adaptive storage mixed workloads "

func tweetText(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = tweetAlpha[r.Intn(len(tweetAlpha))]
	}
	return string(b)
}

// Client is one Twitter client.
type Client struct {
	w  *Workload
	r  *rand.Rand
	z  *rand.Zipf
	qn int
}

// NewClient builds client i with its own skewed user source; its query
// cycle starts at query i so that concurrent clients spread over the
// queries.
func (w *Workload) NewClient(i int, r *rand.Rand) *Client {
	return &Client{w: w, r: r, z: rand.NewZipf(r, w.cfg.ZipfS, 1, uint64(w.cfg.Users-1)), qn: i}
}

// OLTP draws one of the transactional operations: insert tweet (dominant,
// as the paper observes), follow a user (updating follower counts — the
// Twitter-API "update followers" transaction), or update a profile.
func (c *Client) OLTP() *query.Txn {
	w := c.w
	switch p := c.r.Intn(100); {
	case p < 70: // insert tweet
		t := w.nextTweet.Add(1) - 1
		if t >= int64(w.cfg.MaxTweets) {
			t = int64(w.cfg.MaxTweets) - 1
			return &query.Txn{Ops: []query.Op{{
				Kind: query.OpUpdate, Table: w.tweets.ID, Row: schema.RowID(t),
				Cols: []schema.ColID{2}, Vals: []types.Value{types.NewString(tweetText(c.r, w.cfg.TweetTextLen))},
			}}}
		}
		u := int(c.z.Uint64())
		return &query.Txn{Ops: []query.Op{
			{Kind: query.OpInsert, Table: w.tweets.ID, Row: schema.RowID(t), Vals: []types.Value{
				types.NewInt64(t), types.NewInt64(int64(u)),
				types.NewString(tweetText(c.r, w.cfg.TweetTextLen)),
				types.NewTime(time.Now()),
			}},
			{Kind: query.OpUpdate, Table: w.users.ID, Row: schema.RowID(u),
				Cols: []schema.ColID{3}, Vals: []types.Value{types.NewInt64(1)}},
		}}
	case p < 90: // follow
		follower := c.r.Intn(w.cfg.Users)
		followee := int(c.z.Uint64())
		slot := w.followSlot[follower].Add(1) - 1
		if slot >= int64(w.cfg.FollowsPerUser) {
			// Slots exhausted: refresh an existing edge instead.
			slot = int64(c.r.Intn(w.cfg.FollowsPerUser))
			return &query.Txn{Ops: []query.Op{
				{Kind: query.OpUpdate, Table: w.follows.ID, Row: w.followRow(follower, slot),
					Cols: []schema.ColID{2}, Vals: []types.Value{types.NewTime(time.Now())}},
			}}
		}
		return &query.Txn{Ops: []query.Op{
			{Kind: query.OpInsert, Table: w.follows.ID, Row: w.followRow(follower, slot), Vals: []types.Value{
				types.NewInt64(int64(follower)), types.NewInt64(int64(followee)), types.NewTime(time.Now()),
			}},
			{Kind: query.OpUpdate, Table: w.users.ID, Row: schema.RowID(followee),
				Cols: []schema.ColID{2}, Vals: []types.Value{types.NewInt64(1)}},
		}}
	default: // profile update
		u := c.r.Intn(w.cfg.Users)
		return &query.Txn{Ops: []query.Op{
			{Kind: query.OpUpdate, Table: w.users.ID, Row: schema.RowID(u),
				Cols: []schema.ColID{1}, Vals: []types.Value{types.NewString(fmt.Sprintf("user-%d-v2", u))}},
		}}
	}
}

// OLAP cycles the analytical queries.
func (c *Client) OLAP() *query.Query {
	q := c.w.Query(c.qn, c.r, c.z)
	c.qn++
	return q
}

// NumQueries is the analytical query count.
const NumQueries = 6

// Query builds analytical query qn: the paper's six OLAP transactions
// including the Twitter-API additions (get tweets from followers, tweets
// within a timespan, tweets starting with specific text).
func (w *Workload) Query(qn int, r *rand.Rand, z *rand.Zipf) *query.Query {
	switch qn % NumQueries {
	case 0: // timeline: tweets from users u follows (many-to-many join)
		u := int64(z.Uint64())
		return &query.Query{Root: &query.AggNode{
			Child: &query.JoinNode{
				Left: &query.ScanNode{
					Table: w.follows.ID,
					Cols:  []schema.ColID{1}, // followee
					Pred:  storage.Pred{{Col: 0, Op: storage.CmpEq, Val: types.NewInt64(u)}},
				},
				Right: &query.ScanNode{
					Table: w.tweets.ID,
					Cols:  []schema.ColID{1, 0}, // tuid, tid
				},
				LeftKeyCol: 0, RightKeyCol: 0,
			},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggMax, Col: 2}},
		}}
	case 1: // tweets within a timespan
		return &query.Query{Root: &query.AggNode{
			Child: &query.ScanNode{
				Table: w.tweets.ID,
				Cols:  []schema.ColID{0},
				Pred: storage.Pred{
					{Col: 3, Op: storage.CmpGe, Val: types.NewTime(w.epoch)},
					{Col: 3, Op: storage.CmpLe, Val: types.NewTime(w.epoch.Add(12 * time.Hour))},
				},
			},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}},
		}}
	case 2: // tweets per user
		return &query.Query{Root: &query.AggNode{
			Child:   &query.ScanNode{Table: w.tweets.ID, Cols: []schema.ColID{1}},
			GroupBy: []int{0},
			Aggs:    []exec.AggSpec{{Func: exec.AggCount}},
		}}
	case 3: // prefix search: tweets starting with specific text
		prefix := string(tweetAlpha[r.Intn(8)])
		return &query.Query{Root: &query.AggNode{
			Child: &query.ScanNode{
				Table: w.tweets.ID,
				Cols:  []schema.ColID{0},
				Pred: storage.Pred{
					{Col: 2, Op: storage.CmpGe, Val: types.NewString(prefix)},
					{Col: 2, Op: storage.CmpLt, Val: types.NewString(prefix + "~")},
				},
			},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}},
		}}
	case 4: // follower leaders: follows per followee
		return &query.Query{Root: &query.AggNode{
			Child:   &query.ScanNode{Table: w.follows.ID, Cols: []schema.ColID{1}},
			GroupBy: []int{0},
			Aggs:    []exec.AggSpec{{Func: exec.AggCount}},
		}}
	default: // recent activity: users joined with their recent tweets
		return &query.Query{Root: &query.AggNode{
			Child: &query.JoinNode{
				Left: &query.ScanNode{
					Table: w.tweets.ID,
					Cols:  []schema.ColID{1, 3},
					Pred:  storage.Pred{{Col: 3, Op: storage.CmpGe, Val: types.NewTime(w.epoch.Add(6 * time.Hour))}},
				},
				Right: &query.ScanNode{
					Table: w.users.ID,
					Cols:  []schema.ColID{0, 2},
				},
				LeftKeyCol: 0, RightKeyCol: 0,
			},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Col: 3}},
		}}
	}
}
