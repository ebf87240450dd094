// Command benchjson is the CI validator for telemetry JSONL files written by
// the -metrics-out flag (make smoke-telemetry). The benchmark itself lives
// in ./bench (make bench, make bench-compare).
//
// Usage:
//
//	benchjson -check run.jsonl -require md/force,kmc/sector,mpi/bytes-sent
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	check := flag.String("check", "", "telemetry JSONL file to validate")
	require := flag.String("require", "", "comma-separated metric names the JSONL report must contain")
	flag.Parse()
	if *check == "" {
		log.Fatal("benchjson: -check FILE is required")
	}
	if err := checkJSONL(*check, splitList(*require)); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
}

func splitList(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// jsonlLine mirrors the telemetry wire format closely enough to validate it.
type jsonlLine struct {
	Type    string `json:"type"`
	Rank    *int   `json:"rank,omitempty"`
	Ranks   int    `json:"ranks,omitempty"`
	Metrics []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"metrics"`
}

// checkJSONL validates a -metrics-out file: every line is JSON of type
// "snapshot" or "report", at least one snapshot per rank and exactly one
// final report exist, and the report carries every required metric name.
func checkJSONL(path string, required []string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var snapshots, reports, lineNo int
	ranks := map[int]bool{}
	reportNames := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			return fmt.Errorf("%s:%d: not valid JSON: %v", path, lineNo, err)
		}
		switch line.Type {
		case "snapshot":
			snapshots++
			if line.Rank == nil {
				return fmt.Errorf("%s:%d: snapshot line without a rank", path, lineNo)
			}
			ranks[*line.Rank] = true
		case "report":
			reports++
			if line.Ranks <= 0 {
				return fmt.Errorf("%s:%d: report line with ranks=%d", path, lineNo, line.Ranks)
			}
			for _, m := range line.Metrics {
				reportNames[m.Name] = true
			}
		default:
			return fmt.Errorf("%s:%d: unknown line type %q", path, lineNo, line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		// lineNo is the last fully scanned line; the failure is on the next.
		return fmt.Errorf("%s:%d: reading: %v", path, lineNo+1, err)
	}
	if snapshots == 0 {
		return fmt.Errorf("%s: no snapshot lines", path)
	}
	if reports != 1 {
		return fmt.Errorf("%s: want exactly 1 report line, got %d", path, reports)
	}
	var missing []string
	for _, name := range required {
		if !reportNames[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: report is missing required metric(s): %s",
			path, strings.Join(missing, ", "))
	}
	fmt.Printf("benchjson: %s ok (%d snapshot line(s) over %d rank(s), %d report metric(s))\n",
		path, snapshots, len(ranks), len(reportNames))
	return nil
}
