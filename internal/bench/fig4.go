package bench

import (
	"fmt"
	"repro/internal/obs"

	"repro/internal/core"
	"repro/internal/seal"
	"repro/internal/sgx"
)

// Payload sizes of the paper's Figure 4 sealing experiment.
const (
	SmallPayload = 100        // "100" in Fig. 4: 100 bytes
	LargePayload = 100 * 1024 // "100kB"
)

// Fig4 measures library initialization (new and restore) and the sealing
// and unsealing operations at 100 B and 100 kB, Migration Library vs.
// native SGX sealing (paper Figure 4).
func Fig4(cfg Config) ([]Row, error) {
	w, err := newWorld(cfg.Scale)
	if err != nil {
		return nil, err
	}

	var rows []Row
	libSamples := make(map[string][]float64)
	baseSamples := make(map[string][]float64)

	// --- Initialization: no baseline exists (the paper notes the same).
	initNew, err := sample(cfg.N, func() error {
		e, err := w.src.HW.Load(appImage("fig4-init"))
		if err != nil {
			return err
		}
		lib := core.NewLibrary(e, w.src.Counters, core.NewMemoryStorage())
		if err := lib.Init(core.InitNew, w.src.ME); err != nil {
			return err
		}
		w.src.HW.Destroy(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	libSamples["init-new"] = initNew
	row, err := compare("init-new", initNew, nil, cfg.Confidence)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Restore: measure Init(InitRestore) with a persisted blob.
	restoreStorage := core.NewMemoryStorage()
	{
		e, err := w.src.HW.Load(appImage("fig4-restore"))
		if err != nil {
			return nil, err
		}
		lib := core.NewLibrary(e, w.src.Counters, restoreStorage)
		if err := lib.Init(core.InitNew, w.src.ME); err != nil {
			return nil, err
		}
		w.src.HW.Destroy(e)
	}
	initRestore, err := sample(cfg.N, func() error {
		e, err := w.src.HW.Load(appImage("fig4-restore"))
		if err != nil {
			return err
		}
		lib := core.NewLibrary(e, w.src.Counters, restoreStorage)
		if err := lib.Init(core.InitRestore, w.src.ME); err != nil {
			return err
		}
		w.src.HW.Destroy(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	libSamples["init-restore"] = initRestore
	row, err = compare("init-restore", initRestore, nil, cfg.Confidence)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// --- Sealing: library (MSK) vs. native SGX sealing.
	app, err := w.src.LaunchApp(appImage("fig4-seal"), core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		return nil, err
	}
	baseEnclave, err := w.src.HW.Load(appImage("fig4-seal-base"))
	if err != nil {
		return nil, err
	}

	for _, size := range []struct {
		label string
		bytes int
	}{{"100B", SmallPayload}, {"100kB", LargePayload}} {
		payload := make([]byte, size.bytes)
		for i := range payload {
			payload[i] = byte(i)
		}

		libSeal, err := sample(cfg.N, func() error {
			_, err := app.Library.SealMigratable(nil, payload)
			return err
		})
		if err != nil {
			return nil, err
		}
		baseSeal, err := sample(cfg.N, func() error {
			_, err := seal.Seal(baseEnclave, sgx.PolicyMRENCLAVE, nil, payload)
			return err
		})
		if err != nil {
			return nil, err
		}
		libSamples["seal-"+size.label], baseSamples["seal-"+size.label] = libSeal, baseSeal
		row, err := compare("seal-"+size.label, libSeal, baseSeal, cfg.Confidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)

		libBlob, err := app.Library.SealMigratable(nil, payload)
		if err != nil {
			return nil, err
		}
		baseBlob, err := seal.Seal(baseEnclave, sgx.PolicyMRENCLAVE, nil, payload)
		if err != nil {
			return nil, err
		}
		libUnseal, err := sample(cfg.N, func() error {
			_, _, err := app.Library.UnsealMigratable(libBlob)
			return err
		})
		if err != nil {
			return nil, err
		}
		baseUnseal, err := sample(cfg.N, func() error {
			_, _, err := seal.Unseal(baseEnclave, baseBlob)
			return err
		})
		if err != nil {
			return nil, err
		}
		libSamples["unseal-"+size.label], baseSamples["unseal-"+size.label] = libUnseal, baseUnseal
		row, err = compare("unseal-"+size.label, libUnseal, baseUnseal, cfg.Confidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	cfg.record(obs.Fig4, "library", libSamples)
	cfg.record(obs.Fig4, "baseline", baseSamples)
	cfg.recordSimCounts(w.dc.Latency)
	return rows, nil
}

// TableSizes reports the wire sizes of the paper's Table I (migration
// data) and Table II (library internal state) structures as implemented.
func TableSizes() (migrationDataBytes, libraryBlobBytes int, err error) {
	var d core.MigrationData
	raw, err := d.Encode()
	if err != nil {
		return 0, 0, fmt.Errorf("encode migration data: %w", err)
	}
	migrationDataBytes = len(raw)

	// The sealed library blob: measure through a real library instance.
	w, err := newWorld(0)
	if err != nil {
		return 0, 0, err
	}
	storage := core.NewMemoryStorage()
	if _, err := w.src.LaunchApp(appImage("table2"), storage, core.InitNew); err != nil {
		return 0, 0, err
	}
	blob, err := storage.Load()
	if err != nil {
		return 0, 0, err
	}
	return migrationDataBytes, len(blob), nil
}
