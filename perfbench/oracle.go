package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/tpcds"
)

// The oracle computes every op's expected answer in plain Go from the
// generated rows; it shares no code with the engine.

// floatTol is the relative tolerance for float answers: the engine sums
// and merges partial aggregates in another order than the oracle.
const floatTol = 1e-9

// scanAggAnswer is count(*), sum(ss_sales_price), min and max(ss_quantity)
// over store_sales rows dated lo..hi.
func scanAggAnswer(byDate map[int32][]plan.Row, lo, hi int) plan.Row {
	var n int64
	var sum float64
	var qmin, qmax int32
	for d := lo; d <= hi; d++ {
		for _, r := range byDate[int32(d)] {
			q := r[4].(int32)
			if n == 0 || q < qmin {
				qmin = q
			}
			if n == 0 || q > qmax {
				qmax = q
			}
			n++
			sum += r[5].(float64)
		}
	}
	if n == 0 {
		return plan.Row{int64(0), nil, nil, nil}
	}
	return plan.Row{n, sum, qmin, qmax}
}

// q39CoV and q39Month mirror tpcds.Q39a/Q39b with the months as
// parameters; TestQ39SQLMatchesTPCDS pins the text to the program's own.
const q39CoV = `CASE WHEN avg(inv_quantity_on_hand) = 0 THEN 0
        ELSE stddev_samp(inv_quantity_on_hand) / avg(inv_quantity_on_hand) END`

func q39Month(year, moy int, minCov float64) string {
	lo, hi := (moy-1)*30+1, moy*30
	return fmt.Sprintf(`
    SELECT w_warehouse_sk AS w, i_item_sk AS i,
           avg(inv_quantity_on_hand) AS qmean,
           %s AS qcov
    FROM inventory
    JOIN item ON inv_item_sk = i_item_sk
    JOIN warehouse ON inv_warehouse_sk = w_warehouse_sk
    JOIN date_dim ON inv_date_sk = d_date_sk
    WHERE inv_date_sk BETWEEN %d AND %d AND d_year = %d AND d_moy = %d
    GROUP BY w_warehouse_sk, i_item_sk
    HAVING %s > %g`, q39CoV, lo, hi, year, moy, q39CoV, minCov)
}

// q39SQL is q39 over months moy and moy+1 of 2001; minCov 1.0 is q39a,
// 1.5 is q39b.
func q39SQL(moy int, minCov float64) string {
	return fmt.Sprintf(`
SELECT inv1.w, inv1.i, inv1.qmean, inv1.qcov, inv2.qmean, inv2.qcov
FROM (%s) inv1
JOIN (%s) inv2 ON inv1.w = inv2.w AND inv1.i = inv2.i
ORDER BY inv1.w, inv1.i`, q39Month(2001, moy, minCov), q39Month(2001, moy+1, minCov))
}

type whItem struct{ w, i int32 }

type monthStat struct{ mean, cov float64 }

// q39Side is one month's subquery: per (warehouse, item) the mean and the
// coefficient of variation of the quantity on hand, kept where the CoV
// exceeds minCov. stddev_samp of one value is NULL, and so is the CoV;
// NULL > minCov is false.
func q39Side(data *tpcds.Data, moy int, minCov float64) map[whItem]monthStat {
	items := make(map[int32]bool, len(data.Item))
	for _, r := range data.Item {
		items[r[0].(int32)] = true
	}
	whs := make(map[int32]bool, len(data.Warehouse))
	for _, r := range data.Warehouse {
		whs[r[0].(int32)] = true
	}
	dates := make(map[int32]bool)
	for _, r := range data.DateDim {
		if r[4].(int32) == 2001 && r[3].(int32) == int32(moy) {
			dates[r[0].(int32)] = true
		}
	}
	lo, hi := int32((moy-1)*30+1), int32(moy*30)
	groups := make(map[whItem][]float64)
	for _, r := range data.Inventory {
		d, it, w := r[0].(int32), r[1].(int32), r[2].(int32)
		if d < lo || d > hi || !dates[d] || !items[it] || !whs[w] {
			continue
		}
		k := whItem{w, it}
		groups[k] = append(groups[k], float64(r[3].(int32)))
	}
	out := make(map[whItem]monthStat)
	for k, xs := range groups {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		if len(xs) < 2 {
			continue
		}
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		cov := 0.0
		if mean != 0 {
			cov = math.Sqrt(ss/float64(len(xs)-1)) / mean
		}
		if cov > minCov {
			out[k] = monthStat{mean, cov}
		}
	}
	return out
}

// q39Answer joins the two months' sides on (warehouse, item), ordered.
func q39Answer(data *tpcds.Data, moy int, minCov float64) []plan.Row {
	m1, m2 := q39Side(data, moy, minCov), q39Side(data, moy+1, minCov)
	var keys []whItem
	for k := range m1 {
		if _, ok := m2[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].w != keys[b].w {
			return keys[a].w < keys[b].w
		}
		return keys[a].i < keys[b].i
	})
	out := make([]plan.Row, len(keys))
	for j, k := range keys {
		out[j] = plan.Row{k.w, k.i, m1[k].mean, m1[k].cov, m2[k].mean, m2[k].cov}
	}
	return out
}

// checkAnswer compares an engine answer with the oracle's, row by row and
// in order. Integers must match exactly (whatever their width); floats to
// floatTol relative.
func checkAnswer(got, want []plan.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if !sameValue(got[i][c], want[i][c]) {
				return fmt.Errorf("row %d column %d: got %v (%T), want %v (%T)", i, c, got[i][c], got[i][c], want[i][c], want[i][c])
			}
		}
	}
	return nil
}

func sameValue(got, want any) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	if wf, ok := want.(float64); ok {
		gf, ok := got.(float64)
		if !ok {
			return false
		}
		return math.Abs(gf-wf) <= floatTol*math.Max(1, math.Max(math.Abs(gf), math.Abs(wf)))
	}
	gi, ok1 := asInt(got)
	wi, ok2 := asInt(want)
	return ok1 && ok2 && gi == wi
}

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}
