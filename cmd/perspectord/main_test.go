package main

import (
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.storeDir != "perspectord-data" || o.cacheDir != "" {
		t.Errorf("default paths: %+v", o)
	}
	if o.jobWorkers != 2 || o.maxQueue != 64 || o.drainTimeout != 30*time.Second {
		t.Errorf("default queue shape: %+v", o)
	}
	if o.enablePprof || o.logJSON {
		t.Errorf("debug flags on by default: %+v", o)
	}
}

func TestParseFlagsOverridesAndErrors(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", ":9090", "-store-dir", "", "-cache-dir", "/tmp/c",
		"-jobs", "4", "-max-queue", "8", "-drain-timeout", "5s",
		"-pprof", "-log-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":9090" || o.storeDir != "" || o.cacheDir != "/tmp/c" ||
		o.jobWorkers != 4 || o.maxQueue != 8 || o.drainTimeout != 5*time.Second ||
		!o.enablePprof || !o.logJSON {
		t.Errorf("overrides not applied: %+v", o)
	}
	if _, err := parseFlags([]string{"-jobs", "0"}); err == nil {
		t.Error("-jobs 0 accepted")
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// perspectord serves no benchmark history, so -bench-history is an
	// unknown flag.
	if _, err := parseFlags([]string{"-bench-history", "BENCH_history.jsonl"}); err == nil {
		t.Error("-bench-history accepted")
	}
}
