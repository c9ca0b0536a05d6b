package assoc

import "sort"

// query.go provides the one D4M-style analytic helper the examples use
// on associative arrays: top-K selection by a numeric column.

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
