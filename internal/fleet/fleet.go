package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Sentinel errors mapped onto HTTP statuses by the fleet handler.
var (
	ErrNotFound = errors.New("fleet: device not found")
	ErrClosed   = errors.New("fleet: manager closed")
)

// Manager is the fleet control plane: the device registry, one patrol
// session goroutine per device, journal-backed durability for device and
// session specifications, and the aggregate metrics surface.
type Manager struct {
	// MaxBodyBytes caps fleet JSON request bodies (0 = 1 MiB). Set it
	// before RegisterRoutes.
	MaxBodyBytes int64

	mu      sync.Mutex
	devices map[string]*Device
	order   []string
	closed  bool

	// jnl, when non-nil, makes registrations, patrol reconfigurations,
	// and removals durable. Only specifications are journaled — device
	// state is recomputed on recovery from the deterministic seed.
	jnl *journal.Journal

	nextDev   atomic.Int64
	nextScrub atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup

	registered atomic.Int64
	removed    atomic.Int64
	scrubJobs  atomic.Int64
}

// NewManager builds an empty fleet. jnl may be nil (no durability).
func NewManager(jnl *journal.Journal) *Manager {
	return &Manager{
		devices: map[string]*Device{},
		jnl:     jnl,
		stop:    make(chan struct{}),
	}
}

// mintDeviceID returns the next fleet device identifier.
func (m *Manager) mintDeviceID() string {
	return fmt.Sprintf("dev-%06d", m.nextDev.Add(1))
}

// Register validates and journals a device specification, builds the
// device, and starts its patrol session. The returned view carries the
// minted device ID.
func (m *Manager) Register(spec DeviceSpec) (DeviceView, error) {
	id := m.mintDeviceID()
	d, err := newManagedDevice(id, spec)
	if err != nil {
		return DeviceView{}, err
	}
	if m.jnl != nil {
		raw, err := json.Marshal(spec)
		if err != nil {
			return DeviceView{}, fmt.Errorf("fleet: encode device spec: %w", err)
		}
		if err := m.jnl.Append(journal.Record{
			Type: journal.TypeFleetDevice, Job: id, Spec: raw,
		}); err != nil {
			return DeviceView{}, err
		}
	}
	if err := m.install(d); err != nil {
		return DeviceView{}, err
	}
	return d.View(), nil
}

// install publishes a built device and starts its patrol session: the
// one path by which Register and Recover bring a device live.
func (m *Manager) install(d *Device) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.devices[d.ID] = d
	m.order = append(m.order, d.ID)
	m.mu.Unlock()
	m.registered.Add(1)
	m.startSession(d)
	return nil
}

// Recover re-registers every device the previous incarnation journaled:
// same spec, same seed, plus the last journaled patrol configuration.
// Device state is deliberately not restored — trajectories are
// deterministic in the spec, so the fleet recomputes them, the same way
// corrupt shard checkpoints silently recompute.
func (m *Manager) Recover(rec *journal.Recovery) error {
	if rec == nil {
		return nil
	}
	// Advance the ID mint past every identifier an earlier incarnation
	// used — including removed devices — so audit trails never collide.
	for _, id := range rec.FleetSeen {
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "dev-"), 10, 64); err == nil {
			for {
				cur := m.nextDev.Load()
				if cur >= n || m.nextDev.CompareAndSwap(cur, n) {
					break
				}
			}
		}
	}
	for _, fd := range rec.FleetDevices {
		var spec DeviceSpec
		if err := json.Unmarshal(fd.Spec, &spec); err != nil {
			// A journaled spec that no longer decodes cannot be rebuilt;
			// drop the device rather than refuse to boot.
			continue
		}
		if len(fd.Patrol) > 0 {
			var pc PatrolConfig
			if err := json.Unmarshal(fd.Patrol, &pc); err == nil {
				spec.Patrol = &pc
			}
		}
		d, err := newManagedDevice(fd.ID, spec)
		if err != nil {
			continue
		}
		if err := m.install(d); err != nil {
			return err
		}
	}
	return nil
}

// device looks a live device up by ID.
func (m *Manager) device(id string) (*Device, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.devices[id]
	if d == nil {
		return nil, ErrNotFound
	}
	return d, nil
}

// Get returns one device's view.
func (m *Manager) Get(id string) (DeviceView, error) {
	d, err := m.device(id)
	if err != nil {
		return DeviceView{}, err
	}
	return d.View(), nil
}

// List returns every device's view in registration order.
func (m *Manager) List() []DeviceView {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	devs := make([]*Device, 0, len(ids))
	for _, id := range ids {
		if d := m.devices[id]; d != nil {
			devs = append(devs, d)
		}
	}
	m.mu.Unlock()
	out := make([]DeviceView, 0, len(devs))
	for _, d := range devs {
		out = append(out, d.View())
	}
	return out
}

// Remove journals the removal, stops the device's session, and drops it
// from the registry.
func (m *Manager) Remove(id string) error {
	d, err := m.device(id)
	if err != nil {
		return err
	}
	if m.jnl != nil {
		if err := m.jnl.Append(journal.Record{
			Type: journal.TypeFleetRemove, Job: id,
		}); err != nil {
			return err
		}
	}
	d.markRemoved()
	m.mu.Lock()
	delete(m.devices, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	m.removed.Add(1)
	return nil
}

// Patch applies a patrol patch to a device and journals the merged
// configuration, so a restart resumes the session at the patched rate.
func (m *Manager) Patch(id string, p PatrolPatch) (PatrolConfig, error) {
	d, err := m.device(id)
	if err != nil {
		return PatrolConfig{}, err
	}
	cfg, err := d.ApplyPatch(p)
	if err != nil {
		return PatrolConfig{}, err
	}
	if m.jnl != nil {
		raw, merr := json.Marshal(cfg)
		if merr == nil {
			_ = m.jnl.Append(journal.Record{
				Type: journal.TypeFleetPatrol, Job: id, Payload: raw,
			})
		}
	}
	return cfg, nil
}

// EnqueueScrub submits an on-demand region scrub against a device. Jobs
// are transient (not journaled): a crashed daemon's clients resubmit,
// exactly as EDAC on-demand scrubs do not survive a reboot.
func (m *Manager) EnqueueScrub(id string, req ScrubRequest) (ScrubView, error) {
	d, err := m.device(id)
	if err != nil {
		return ScrubView{}, err
	}
	sid := fmt.Sprintf("scrub-%06d", m.nextScrub.Add(1))
	v, err := d.EnqueueScrub(sid, req)
	if err != nil {
		return ScrubView{}, err
	}
	m.scrubJobs.Add(1)
	return v, nil
}

// Scrub returns one on-demand job's view.
func (m *Manager) Scrub(id, scrubID string) (ScrubView, error) {
	d, err := m.device(id)
	if err != nil {
		return ScrubView{}, err
	}
	v, ok := d.Scrub(scrubID)
	if !ok {
		return ScrubView{}, ErrNotFound
	}
	return v, nil
}

// Scrubs lists a device's on-demand jobs.
func (m *Manager) Scrubs(id string) ([]ScrubView, error) {
	d, err := m.device(id)
	if err != nil {
		return nil, err
	}
	return d.Scrubs(), nil
}

// Telemetry returns a device's error-statistics snapshot.
func (m *Manager) Telemetry(id string, limit int) ([]LineTelemetry, error) {
	d, err := m.device(id)
	if err != nil {
		return nil, err
	}
	return d.Telemetry(limit), nil
}

// Repairs returns a device's repair-event log.
func (m *Manager) Repairs(id string) ([]RepairEvent, error) {
	d, err := m.device(id)
	if err != nil {
		return nil, err
	}
	return d.Repairs(), nil
}

// startSession launches the device's patrol session goroutine: one chunk
// per tick, paced by the device's TickMillis, woken early by control
// operations, stopped by Shutdown or removal. All simulated results flow
// through Device.Tick, so the live session and a scripted test driver
// produce identical trajectories.
func (m *Manager) startSession(d *Device) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case <-m.stop:
				return
			default:
			}
			if d.isRemoved() {
				return
			}
			if !d.hasWork() {
				// Paused and idle: sleep until a control operation wakes
				// the session (or shutdown/removal).
				select {
				case <-m.stop:
					return
				case <-d.kick:
				}
				continue
			}
			out := d.Tick()
			if !out.Worked {
				continue
			}
			iv := d.tickInterval()
			if iv <= 0 {
				iv = time.Millisecond
			}
			t := time.NewTimer(iv)
			select {
			case <-m.stop:
				t.Stop()
				return
			case <-d.kick:
				t.Stop()
			case <-t.C:
			}
		}
	}()
}

// Shutdown drains the fleet: every session finishes its current chunk
// and exits. Devices stay registered (and journaled) for the next
// incarnation to recover.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
}

// Totals aggregates the fleet's counters for /metrics.
type Totals struct {
	Devices       int
	Registered    int64
	Removed       int64
	ScrubJobs     int64
	PatrolRounds  int64
	Chunks        int64
	PatrolChunks  int64
	ScrubChunks   int64
	Preemptions   int64
	CEObserved    int64
	UEObserved    int64
	CorrectedBits int64
	Repairs       int64
	PendingScrubs int64
	DeviceSeconds float64
}

// Snapshot aggregates current device counters plus lifetime
// registration/removal counts.
func (m *Manager) Snapshot() Totals {
	views := m.List()
	t := Totals{
		Devices:    len(views),
		Registered: m.registered.Load(),
		Removed:    m.removed.Load(),
		ScrubJobs:  m.scrubJobs.Load(),
	}
	for _, v := range views {
		t.PatrolRounds += v.PatrolRounds
		t.Chunks += v.Chunks
		t.PatrolChunks += v.PatrolChunks
		t.ScrubChunks += v.ScrubChunks
		t.Preemptions += v.Preemptions
		t.CEObserved += v.CEObserved
		t.UEObserved += v.UEObserved
		t.CorrectedBits += v.CorrectedBits
		t.Repairs += int64(v.Repairs)
		t.PendingScrubs += int64(v.PendingScrubs)
		t.DeviceSeconds += v.DeviceSeconds
	}
	return t
}

// sortedIDs returns the live device IDs sorted, for deterministic tests.
func (m *Manager) sortedIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := append([]string(nil), m.order...)
	sort.Strings(ids)
	return ids
}
