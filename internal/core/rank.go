package core

import (
	"fmt"
	"sort"

	"perspector/internal/metric"
)

// Ranking orders compared suites per metric and aggregates an overall
// recommendation, turning the four raw scores into the decision the
// paper's introduction motivates: "researchers must evaluate these
// suites quickly and decisively".
type Ranking struct {
	// ByCluster..BySpread list suite names best-first for each metric
	// (ClusterScore and SpreadScore ascending; TrendScore and
	// CoverageScore descending).
	ByCluster  []string
	ByTrend    []string
	ByCoverage []string
	BySpread   []string
	// Overall lists suites by mean rank across the four metrics,
	// best-first; MeanRank holds the corresponding values (1 = won every
	// metric).
	Overall  []string
	MeanRank map[string]float64
}

// Rank builds a Ranking from a set of comparable scores (produced by one
// metric.ScoreSuites call so the normalization is shared). It errors on an empty
// or duplicate-named input.
func Rank(scores []metric.Scores) (*Ranking, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("core: Rank with no scores")
	}
	seen := map[string]bool{}
	for _, s := range scores {
		if s.Suite == "" {
			return nil, fmt.Errorf("core: Rank with unnamed suite")
		}
		if seen[s.Suite] {
			return nil, fmt.Errorf("core: Rank with duplicate suite %q", s.Suite)
		}
		seen[s.Suite] = true
	}

	order := func(value func(metric.Scores) float64, ascending bool) []string {
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			va, vb := value(scores[idx[a]]), value(scores[idx[b]])
			if ascending {
				return va < vb
			}
			return va > vb
		})
		names := make([]string, len(idx))
		for i, k := range idx {
			names[i] = scores[k].Suite
		}
		return names
	}

	r := &Ranking{
		ByCluster:  order(func(s metric.Scores) float64 { return s.Cluster }, true),
		ByTrend:    order(func(s metric.Scores) float64 { return s.Trend }, false),
		ByCoverage: order(func(s metric.Scores) float64 { return s.Coverage }, false),
		BySpread:   order(func(s metric.Scores) float64 { return s.Spread }, true),
		MeanRank:   make(map[string]float64, len(scores)),
	}

	for _, list := range [][]string{r.ByCluster, r.ByTrend, r.ByCoverage, r.BySpread} {
		for pos, name := range list {
			r.MeanRank[name] += float64(pos+1) / 4
		}
	}
	r.Overall = make([]string, 0, len(scores))
	for _, s := range scores {
		r.Overall = append(r.Overall, s.Suite)
	}
	sort.SliceStable(r.Overall, func(a, b int) bool {
		return r.MeanRank[r.Overall[a]] < r.MeanRank[r.Overall[b]]
	})
	return r, nil
}
