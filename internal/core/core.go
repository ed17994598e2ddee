// Package core is the analysis layer above the scoring engine: LHS-based
// subset generation (§IV-C), greedy augmentation, random/affinity
// baselines, redundancy analysis, ranking, stability, and counter-series
// phase detection.
//
// The four §III suite-quality scores live in internal/metric as
// registered metrics over shared Artifacts; this package takes
// metric.Options and returns metric.Scores, and scores suites through
// metric.ScoreSuite and metric.ScoreSuites directly.
package core
