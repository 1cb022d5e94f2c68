package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// meter prints sweep progress — points done/total, completion rate,
// and ETA — to w, rate-limited to one line per second so a multi-hour
// sharded run logs hundreds of lines, not millions. A nil *meter is
// valid and silent, so call sites never branch on whether -progress is
// set.
type meter struct {
	mu    sync.Mutex
	w     io.Writer
	total int
	done  int
	start time.Time
	last  time.Time
}

// newMeter returns a live meter, or nil (silent) when disabled.
func newMeter(w io.Writer, total int, enabled bool) *meter {
	if !enabled {
		return nil
	}
	return &meter{w: w, total: total, start: time.Now()}
}

// add records n more completed points.
func (m *meter) add(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.done += n
	m.maybePrint(false)
	m.mu.Unlock()
}

// set records the absolute completed count (the coordinator's poll
// reads grid-wide completion off the shared cache, which can also
// regress transiently on a read error — keep the max).
func (m *meter) set(done int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if done > m.done {
		m.done = done
	}
	m.maybePrint(false)
	m.mu.Unlock()
}

// finish forces a final line so the last state is always visible.
func (m *meter) finish() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.maybePrint(true)
	m.mu.Unlock()
}

// maybePrint emits one progress line, at most once a second unless
// forced. Caller holds mu.
func (m *meter) maybePrint(force bool) {
	now := time.Now()
	if !force && now.Sub(m.last) < time.Second {
		return
	}
	m.last = now
	elapsed := now.Sub(m.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(m.done) / elapsed
	}
	eta := "?"
	switch {
	case m.done >= m.total:
		eta = "0s"
	case rate > 0:
		eta = (time.Duration(float64(m.total-m.done) / rate * float64(time.Second))).Round(time.Second).String()
	}
	pct := 0.0
	if m.total > 0 {
		pct = 100 * float64(m.done) / float64(m.total)
	}
	fmt.Fprintf(m.w, "progress: %d/%d points (%.1f%%) %.1f pt/s eta %s\n", m.done, m.total, pct, rate, eta)
}
