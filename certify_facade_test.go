package safeplan

import (
	"strings"
	"testing"
)

// TestCertifyRefusedOutsideLeftTurn pins the refusal of WithCertify on
// every entry point whose engine has no verified mode: each must return
// a safeplan-prefixed error instead of running with the certified-range
// counters silently left at zero.  Left turn, which implements it, is
// the positive control.
func TestCertifyRefusedOutsideLeftTurn(t *testing.T) {
	sc := DefaultScenario()
	kn, err := LoadPlanner("models/nn-cons.json", "nn-cons", sc)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := NewIBPPropagator(kn)
	if err != nil {
		t.Fatal(err)
	}
	certify := WithCertify(CertifyConfig{Prop: prop})

	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	res, err := RunEpisode(cfg, BuildUltimate(sc, kn), 1, certify)
	if err != nil {
		t.Fatalf("RunEpisode: %v", err)
	}
	if res.CertifiedSteps == 0 {
		t.Fatal("RunEpisode: verified mode certified nothing")
	}

	mcfg := DefaultMultiSimConfig()
	magent := BuildMultiUltimate(sc, kn)
	cfsc := DefaultCarFollowScenario()
	cfcfg := DefaultCarFollowSimConfig()
	cfAgent := BuildCarFollowUltimate(cfsc, NewCarFollowConservativeExpert(cfsc))
	pcfg := DefaultPlatoonSimConfig()
	pAgent := BuildCarFollowUltimate(pcfg.LinkScenario(), NewCarFollowConservativeExpert(pcfg.LinkScenario()))

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunMultiEpisode", func() error { _, err := RunMultiEpisode(mcfg, magent, 1, certify); return err }},
		{"RunMultiCampaign", func() error { _, err := RunMultiCampaign(mcfg, magent, 4, 1, certify); return err }},
		{"NewMultiStepper", func() error { _, err := NewMultiStepper(mcfg, magent, 1, certify); return err }},
		{"RunCarFollowEpisode", func() error { _, err := RunCarFollowEpisode(cfcfg, cfAgent, 1, certify); return err }},
		{"RunCarFollowCampaign", func() error { _, err := RunCarFollowCampaign(cfcfg, cfAgent, 4, 1, certify); return err }},
		{"NewCarFollowStepper", func() error { _, err := NewCarFollowStepper(cfcfg, cfAgent, 1, certify); return err }},
		{"RunPlatoonEpisode", func() error { _, err := RunPlatoonEpisode(pcfg, pAgent, 1, certify); return err }},
		{"RunPlatoonCampaign", func() error { _, err := RunPlatoonCampaign(pcfg, pAgent, 4, 1, certify); return err }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("WithCertify accepted by an engine without verified mode")
			}
			if !strings.HasPrefix(err.Error(), "safeplan:") || !strings.Contains(err.Error(), "ertify") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
