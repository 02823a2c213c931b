package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// fill overwrites buf with a splitmix64 stream keyed by key: the same key
// always yields the same bytes, and generating 32 MiB costs a few
// milliseconds, so every transfer can move fresh content.
func fill(buf []byte, key uint64) {
	x := key
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], next())
	copy(buf[i:], tail[:])
}

// inputKey derives the content key of input i of one stream of inputs
// (stream separates warm-up, measured and probe inputs of a run).
func inputKey(seed int64, stream, i int) uint64 {
	return uint64(seed)*0x100000001b3 ^ uint64(stream)<<40 ^ uint64(i)
}

// Input streams.
const (
	streamMeasured = iota + 1
	streamWarm
	streamProbe
	streamTasks
)

// taskFile is one object the tasks workload submits, stored as a file
// because the daemon's movers read their objects from disk.
type taskFile struct {
	path   string
	size   int
	digest [32]byte
}

// submission is one scheduled Submit of the open loop.
type submission struct {
	file taskFile
	hot  bool // repeats a hot-set object delivered before
}

// taskPlan is the seeded input of one tasks run: the hot set and the
// submission schedule, whose files are already on disk.
type taskPlan struct {
	hot  []taskFile
	subs []submission
}

// makeTaskPlan writes n submissions' worth of files under dir. About one
// submission in hotEvery repeats one of the hot-set objects; every other
// submission is a distinct object of a uniformly drawn size.
func makeTaskPlan(dir string, seed int64, stream int, p params, n int) (*taskPlan, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(inputKey(seed, stream, 0))))
	plan := &taskPlan{}
	write := func(name string, size int) (taskFile, error) {
		buf := make([]byte, size)
		fill(buf, rng.Uint64())
		f := taskFile{path: filepath.Join(dir, name), size: size, digest: sha256.Sum256(buf)}
		if err := os.WriteFile(f.path, buf, 0o644); err != nil {
			return f, fmt.Errorf("write task input: %w", err)
		}
		return f, nil
	}
	// The hot set's sizes are drawn one per equal stratum of the size
	// range, so eight objects cannot all come out small (or large) and
	// swing a seed's offered byte rate by their chance mean.
	span := p.maxFile - p.minFile + 1
	for i := 0; i < p.hotSet; i++ {
		lo, hi := i*span/p.hotSet, (i+1)*span/p.hotSet
		f, err := write(fmt.Sprintf("hot-%d", i), p.minFile+lo+rng.Intn(hi-lo))
		if err != nil {
			return nil, err
		}
		plan.hot = append(plan.hot, f)
	}
	for i := 0; i < n; i++ {
		if p.hotSet > 0 && rng.Intn(p.hotEvery) == 0 {
			plan.subs = append(plan.subs, submission{file: plan.hot[rng.Intn(p.hotSet)], hot: true})
			continue
		}
		f, err := write(fmt.Sprintf("obj-%d", i), p.minFile+rng.Intn(span))
		if err != nil {
			return nil, err
		}
		plan.subs = append(plan.subs, submission{file: f})
	}
	return plan, nil
}
