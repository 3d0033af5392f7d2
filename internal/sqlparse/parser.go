package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"proteus/internal/exec"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Parse converts one SQL statement into a query.Request, resolving table
// and column names against the catalog. The primary key convention: every
// table's row id is addressed through the pseudo-column "id" in INSERT /
// UPDATE / DELETE / point-SELECT WHERE clauses.
func Parse(cat *schema.Catalog, sql string) (query.Request, error) {
	toks, err := lex(sql)
	if err != nil {
		return query.Request{}, err
	}
	p := &parser{cat: cat, toks: toks}
	switch {
	case p.peekKeyword("SELECT"):
		q, err := p.parseSelect()
		if err != nil {
			return query.Request{}, err
		}
		return query.Request{Query: q}, nil
	case p.peekKeyword("INSERT"):
		op, err := p.parseInsert()
		if err != nil {
			return query.Request{}, err
		}
		return query.Request{Txn: &query.Txn{Ops: []query.Op{op}}}, nil
	case p.peekKeyword("UPDATE"):
		op, err := p.parseUpdate()
		if err != nil {
			return query.Request{}, err
		}
		return query.Request{Txn: &query.Txn{Ops: []query.Op{op}}}, nil
	case p.peekKeyword("DELETE"):
		op, err := p.parseDelete()
		if err != nil {
			return query.Request{}, err
		}
		return query.Request{Txn: &query.Txn{Ops: []query.Op{op}}}, nil
	}
	return query.Request{}, fmt.Errorf("sql: expected SELECT, INSERT, UPDATE or DELETE")
}

type parser struct {
	cat  *schema.Catalog
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }
func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peekKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q", kw, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.cur()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sql: expected %q, got %q", sym, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) table() (*schema.Table, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tbl, ok := p.cat.TableByName(name)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return tbl, nil
}

// literal parses a constant of the column's kind.
func (p *parser) literal(kind types.Kind) (types.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		if kind == types.KindFloat64 {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Null(), err
			}
			return types.NewFloat64(f), nil
		}
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Null(), err
			}
			return types.NewFloat64(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return types.Null(), err
		}
		if kind == types.KindInt64 || kind == types.KindNull {
			return types.NewInt64(i), nil
		}
		return types.Parse(kind, t.text)
	case tokString:
		p.advance()
		if kind == types.KindString || kind == types.KindNull {
			return types.NewString(t.text), nil
		}
		return types.Parse(kind, t.text)
	}
	return types.Null(), fmt.Errorf("sql: expected literal, got %q", t.text)
}

// selectItem is one projection entry: a column or an aggregate over one.
type selectItem struct {
	agg    exec.AggFunc
	hasAgg bool
	col    string // empty for COUNT(*)
}

func (p *parser) parseSelectItem() (selectItem, error) {
	name, err := p.ident()
	if err != nil {
		return selectItem{}, err
	}
	upper := strings.ToUpper(name)
	aggs := map[string]exec.AggFunc{"SUM": exec.AggSum, "COUNT": exec.AggCount,
		"MIN": exec.AggMin, "MAX": exec.AggMax, "AVG": exec.AggAvg}
	if fn, isAgg := aggs[upper]; isAgg && p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.advance()
		item := selectItem{agg: fn, hasAgg: true}
		if p.cur().kind == tokSymbol && p.cur().text == "*" {
			if fn != exec.AggCount {
				return item, fmt.Errorf("sql: %s(*) not supported", upper)
			}
			p.advance()
		} else {
			col, err := p.qualifiedCol()
			if err != nil {
				return item, err
			}
			item.col = col
		}
		if err := p.expectSymbol(")"); err != nil {
			return item, err
		}
		return item, nil
	}
	// Possibly qualified column t.c.
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.advance()
		col, err := p.ident()
		if err != nil {
			return selectItem{}, err
		}
		return selectItem{col: col}, nil
	}
	return selectItem{col: name}, nil
}

// qualifiedCol parses col or table.col, returning just the column name
// (tables are disambiguated by lookup order: left, then right).
func (p *parser) qualifiedCol() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.advance()
		return p.ident()
	}
	return name, nil
}

var cmpOps = map[string]storage.CmpOp{
	"=": storage.CmpEq, "<>": storage.CmpNe, "!=": storage.CmpNe,
	"<": storage.CmpLt, "<=": storage.CmpLe, ">": storage.CmpGt, ">=": storage.CmpGe,
}

// parseSelect handles:
//
//	SELECT items FROM t [JOIN u ON t.a = u.b] [WHERE conds] [GROUP BY col]
func (p *parser) parseSelect() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	left, err := p.table()
	if err != nil {
		return nil, err
	}
	var right *schema.Table
	var lJoinCol, rJoinCol string
	if p.peekKeyword("JOIN") {
		p.advance()
		right, err = p.table()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lJoinCol, err = p.qualifiedCol()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		rJoinCol, err = p.qualifiedCol()
		if err != nil {
			return nil, err
		}
		// Normalize: left join col must belong to the left table.
		if _, inLeft := left.ColumnID(lJoinCol); !inLeft {
			lJoinCol, rJoinCol = rJoinCol, lJoinCol
		}
	}

	// WHERE conjuncts split per table.
	lPred, rPred := storage.Pred{}, storage.Pred{}
	if p.peekKeyword("WHERE") {
		p.advance()
		for {
			col, err := p.qualifiedCol()
			if err != nil {
				return nil, err
			}
			opTok := p.cur()
			op, ok := cmpOps[opTok.text]
			if opTok.kind != tokSymbol || !ok {
				return nil, fmt.Errorf("sql: expected comparison, got %q", opTok.text)
			}
			p.advance()
			tbl, cid, kind, err := p.resolveCol(col, left, right)
			if err != nil {
				return nil, err
			}
			v, err := p.literal(kind)
			if err != nil {
				return nil, err
			}
			cond := storage.Cond{Col: cid, Op: op, Val: v}
			if right != nil && tbl == right {
				rPred = append(rPred, cond)
			} else {
				lPred = append(lPred, cond)
			}
			if p.peekKeyword("AND") {
				p.advance()
				continue
			}
			break
		}
	}

	var groupCol string
	if p.peekKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		groupCol, err = p.qualifiedCol()
		if err != nil {
			return nil, err
		}
	}
	return p.buildQuery(items, left, right, lJoinCol, rJoinCol, lPred, rPred, groupCol)
}

// resolveCol locates a column in the left (preferred) or right table.
func (p *parser) resolveCol(name string, left, right *schema.Table) (*schema.Table, schema.ColID, types.Kind, error) {
	if cid, ok := left.ColumnID(name); ok {
		return left, cid, left.Columns[cid].Kind, nil
	}
	if right != nil {
		if cid, ok := right.ColumnID(name); ok {
			return right, cid, right.Columns[cid].Kind, nil
		}
	}
	return nil, 0, types.KindNull, fmt.Errorf("sql: unknown column %q", name)
}

// buildQuery assembles the logical tree: scans (with pushed predicates),
// the optional join, and the aggregate/group-by layer.
func (p *parser) buildQuery(items []selectItem, left, right *schema.Table,
	lJoin, rJoin string, lPred, rPred storage.Pred, groupCol string) (*query.Query, error) {

	// Output columns needed from each side (projection + join keys + group).
	type colRef struct {
		tbl *schema.Table
		cid schema.ColID
	}
	var scanCols []colRef
	addCol := func(name string) (int, error) {
		tbl, cid, _, err := p.resolveCol(name, left, right)
		if err != nil {
			return 0, err
		}
		for i, c := range scanCols {
			if c.tbl == tbl && c.cid == cid {
				return i, nil
			}
		}
		scanCols = append(scanCols, colRef{tbl, cid})
		return len(scanCols) - 1, nil
	}

	itemPos := make([]int, len(items))
	for i, it := range items {
		if it.col == "" {
			itemPos[i] = -1 // COUNT(*)
			continue
		}
		pos, err := addCol(it.col)
		if err != nil {
			return nil, err
		}
		itemPos[i] = pos
	}
	groupPos := -1
	if groupCol != "" {
		pos, err := addCol(groupCol)
		if err != nil {
			return nil, err
		}
		groupPos = pos
	}
	lKeyPos, rKeyPos := -1, -1
	if right != nil {
		var err error
		if lKeyPos, err = addCol(lJoin); err != nil {
			return nil, err
		}
		if rKeyPos, err = addCol(rJoin); err != nil {
			return nil, err
		}
	}

	// Split scanCols per table, preserving positions: the join output is
	// left cols followed by right cols.
	var lCols, rCols []schema.ColID
	finalPos := make([]int, len(scanCols))
	for i, c := range scanCols {
		if c.tbl == left {
			finalPos[i] = len(lCols)
			lCols = append(lCols, c.cid)
		}
	}
	for i, c := range scanCols {
		if right != nil && c.tbl == right {
			finalPos[i] = -(len(rCols) + 1) // right side, resolved below
			rCols = append(rCols, c.cid)
		}
	}
	for i := range finalPos {
		if finalPos[i] < 0 {
			finalPos[i] = len(lCols) + (-finalPos[i] - 1)
		}
	}

	var root query.Node = &query.ScanNode{Table: left.ID, Cols: lCols, Pred: lPred}
	if right != nil {
		root = &query.JoinNode{
			Left:        root,
			Right:       &query.ScanNode{Table: right.ID, Cols: rCols, Pred: rPred},
			LeftKeyCol:  finalPos[lKeyPos],
			RightKeyCol: finalPos[rKeyPos] - len(lCols),
		}
	}

	// Aggregation layer.
	hasAgg := false
	for _, it := range items {
		if it.hasAgg {
			hasAgg = true
		}
	}
	if hasAgg || groupCol != "" {
		var aggs []exec.AggSpec
		for i, it := range items {
			if !it.hasAgg {
				if groupCol == "" || items[i].col != groupCol {
					return nil, fmt.Errorf("sql: non-aggregated column %q requires GROUP BY", it.col)
				}
				continue
			}
			spec := exec.AggSpec{Func: it.agg}
			if it.col != "" {
				spec.Col = finalPos[itemPos[i]]
				if spec.Func == exec.AggCount {
					spec.Func = exec.AggCountCol // COUNT(col) skips NULLs; COUNT(*) does not
				}
			}
			aggs = append(aggs, spec)
		}
		var groupBy []int
		if groupCol != "" {
			groupBy = []int{finalPos[groupPos]}
		}
		root = &query.AggNode{Child: root, GroupBy: groupBy, Aggs: aggs}
	}
	return &query.Query{Root: root}, nil
}

// parseInsert handles INSERT INTO t VALUES (id, v1, v2, ...): the first
// value is the row id, followed by one value per column.
func (p *parser) parseInsert() (query.Op, error) {
	var op query.Op
	if err := p.expectKeyword("INSERT"); err != nil {
		return op, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return op, err
	}
	tbl, err := p.table()
	if err != nil {
		return op, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return op, err
	}
	if err := p.expectSymbol("("); err != nil {
		return op, err
	}
	idVal, err := p.literal(types.KindInt64)
	if err != nil {
		return op, err
	}
	vals := make([]types.Value, 0, tbl.NumColumns())
	for c := 0; c < tbl.NumColumns(); c++ {
		if err := p.expectSymbol(","); err != nil {
			return op, fmt.Errorf("sql: table %s needs %d values: %w", tbl.Name, tbl.NumColumns(), err)
		}
		v, err := p.literal(tbl.Columns[c].Kind)
		if err != nil {
			return op, err
		}
		vals = append(vals, v)
	}
	if err := p.expectSymbol(")"); err != nil {
		return op, err
	}
	return query.Op{Kind: query.OpInsert, Table: tbl.ID, Row: schema.RowID(idVal.Int()), Vals: vals}, nil
}

// parseKeyedWhere parses WHERE id = <n>.
func (p *parser) parseKeyedWhere() (schema.RowID, error) {
	if err := p.expectKeyword("WHERE"); err != nil {
		return 0, err
	}
	name, err := p.ident()
	if err != nil {
		return 0, err
	}
	if !strings.EqualFold(name, "id") {
		return 0, fmt.Errorf("sql: keyed statements address rows via 'id', got %q", name)
	}
	if err := p.expectSymbol("="); err != nil {
		return 0, err
	}
	v, err := p.literal(types.KindInt64)
	if err != nil {
		return 0, err
	}
	return schema.RowID(v.Int()), nil
}

// parseUpdate handles UPDATE t SET col = v [, col = v ...] WHERE id = n.
func (p *parser) parseUpdate() (query.Op, error) {
	var op query.Op
	if err := p.expectKeyword("UPDATE"); err != nil {
		return op, err
	}
	tbl, err := p.table()
	if err != nil {
		return op, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return op, err
	}
	var cols []schema.ColID
	var vals []types.Value
	for {
		name, err := p.ident()
		if err != nil {
			return op, err
		}
		cid, ok := tbl.ColumnID(name)
		if !ok {
			return op, fmt.Errorf("sql: unknown column %q", name)
		}
		if err := p.expectSymbol("="); err != nil {
			return op, err
		}
		v, err := p.literal(tbl.Columns[cid].Kind)
		if err != nil {
			return op, err
		}
		cols = append(cols, cid)
		vals = append(vals, v)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	row, err := p.parseKeyedWhere()
	if err != nil {
		return op, err
	}
	return query.Op{Kind: query.OpUpdate, Table: tbl.ID, Row: row, Cols: cols, Vals: vals}, nil
}

// parseDelete handles DELETE FROM t WHERE id = n.
func (p *parser) parseDelete() (query.Op, error) {
	var op query.Op
	if err := p.expectKeyword("DELETE"); err != nil {
		return op, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return op, err
	}
	tbl, err := p.table()
	if err != nil {
		return op, err
	}
	row, err := p.parseKeyedWhere()
	if err != nil {
		return op, err
	}
	return query.Op{Kind: query.OpDelete, Table: tbl.ID, Row: row}, nil
}
