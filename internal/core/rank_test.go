package core

import (
	"testing"

	"perspector/internal/metric"
)

func TestRankOrdering(t *testing.T) {
	scores := []metric.Scores{
		{Suite: "a", Cluster: 0.1, Trend: 100, Coverage: 0.5, Spread: 0.2},
		{Suite: "b", Cluster: 0.3, Trend: 50, Coverage: 0.1, Spread: 0.4},
		{Suite: "c", Cluster: 0.2, Trend: 75, Coverage: 0.3, Spread: 0.3},
	}
	r, err := Rank(scores)
	if err != nil {
		t.Fatal(err)
	}
	if r.ByCluster[0] != "a" || r.ByCluster[2] != "b" {
		t.Fatalf("ByCluster = %v", r.ByCluster)
	}
	if r.ByTrend[0] != "a" || r.ByTrend[2] != "b" {
		t.Fatalf("ByTrend = %v", r.ByTrend)
	}
	if r.ByCoverage[0] != "a" {
		t.Fatalf("ByCoverage = %v", r.ByCoverage)
	}
	if r.BySpread[0] != "a" {
		t.Fatalf("BySpread = %v", r.BySpread)
	}
	// a wins every metric: mean rank 1, overall first.
	if r.Overall[0] != "a" || r.Overall[2] != "b" {
		t.Fatalf("Overall = %v", r.Overall)
	}
	if r.MeanRank["a"] != 1 {
		t.Fatalf("MeanRank[a] = %v", r.MeanRank["a"])
	}
	if r.MeanRank["b"] != 3 {
		t.Fatalf("MeanRank[b] = %v", r.MeanRank["b"])
	}
}

func TestRankMixedWinners(t *testing.T) {
	scores := []metric.Scores{
		{Suite: "x", Cluster: 0.1, Trend: 10, Coverage: 0.9, Spread: 0.9},
		{Suite: "y", Cluster: 0.9, Trend: 90, Coverage: 0.1, Spread: 0.1},
	}
	r, err := Rank(scores)
	if err != nil {
		t.Fatal(err)
	}
	// Each wins two metrics: tied mean rank 1.5, stable order preserved.
	if r.MeanRank["x"] != 1.5 || r.MeanRank["y"] != 1.5 {
		t.Fatalf("MeanRank = %v", r.MeanRank)
	}
	if r.Overall[0] != "x" {
		t.Fatalf("stable tie-break broken: %v", r.Overall)
	}
}

func TestRankErrors(t *testing.T) {
	if _, err := Rank(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Rank([]metric.Scores{{Suite: ""}}); err == nil {
		t.Fatal("unnamed suite accepted")
	}
	if _, err := Rank([]metric.Scores{{Suite: "a"}, {Suite: "a"}}); err == nil {
		t.Fatal("duplicate suite accepted")
	}
}

func TestRankSingleSuite(t *testing.T) {
	r, err := Rank([]metric.Scores{{Suite: "only", Cluster: 1, Trend: 1, Coverage: 1, Spread: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Overall) != 1 || r.Overall[0] != "only" || r.MeanRank["only"] != 1 {
		t.Fatalf("singleton ranking %+v", r)
	}
}
