package assoc

import "sort"

// query.go provides the D4M-style analytic helpers the honeyfarm and
// correlation layers use on associative arrays: top-K selection by a
// numeric column, group-by aggregation over a label column, and column
// statistics.

// RowValue pairs a row key with a numeric value, the result unit of
// TopKByColumn.
type RowValue struct {
	Row   string
	Value float64
}

// TopKByColumn returns up to k rows with the largest numeric values in
// the given column, descending, ties broken lexicographically by row.
// Rows lacking the column or holding non-numeric values are skipped.
func (a *Assoc) TopKByColumn(col string, k int) []RowValue {
	var all []RowValue
	for row, r := range a.rows {
		if e := r.Get(col); e != nil && e.Val.Numeric {
			all = append(all, RowValue{Row: row, Value: e.Val.Num})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Row < all[j].Row
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// GroupCount is one group of GroupByColumn.
type GroupCount struct {
	Key  string
	Rows int
}

// GroupByColumn groups rows by the string value in the given column and
// returns per-group row counts, descending by count then ascending by
// key. Rows lacking the column are grouped under "".
func (a *Assoc) GroupByColumn(col string) []GroupCount {
	counts := make(map[string]int)
	for _, r := range a.rows {
		var v Value
		if e := r.Get(col); e != nil {
			v = e.Val
		}
		counts[v.String()]++
	}
	out := make([]GroupCount, 0, len(counts))
	for key, n := range counts {
		out = append(out, GroupCount{Key: key, Rows: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rows != out[j].Rows {
			return out[i].Rows > out[j].Rows
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ColumnStats summarizes a numeric column.
type ColumnStats struct {
	Count    int
	Sum      float64
	Min, Max float64
}

// StatsByColumn computes count/sum/min/max over the numeric values of a
// column. Count is 0 when the column holds no numbers.
func (a *Assoc) StatsByColumn(col string) ColumnStats {
	s := ColumnStats{}
	first := true
	for _, r := range a.rows {
		e := r.Get(col)
		if e == nil || !e.Val.Numeric {
			continue
		}
		v := e.Val
		s.Count++
		s.Sum += v.Num
		if first || v.Num < s.Min {
			s.Min = v.Num
		}
		if first || v.Num > s.Max {
			s.Max = v.Num
		}
		first = false
	}
	return s
}

// NumericColumn extracts the numeric values of a column in row-key
// order, the bridge from D4M tables to the stats package's estimators.
func (a *Assoc) NumericColumn(col string) []float64 {
	rows := a.RowKeys()
	out := make([]float64, 0, len(rows))
	for _, row := range rows {
		if v, ok := a.Get(row, col); ok && v.Numeric {
			out = append(out, v.Num)
		}
	}
	return out
}
