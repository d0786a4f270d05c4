"""Default-fidelity generation is pinned: the EPI profile and the
Figure 5 max-power search must reproduce the reference values exactly.

The pins guard every change to how generation builds and evaluates its
programs (rendering, throughput and energy models): a change that only
makes generation cheaper must leave them untouched.
"""

import hashlib
import json

from repro.core.generator import StressmarkGenerator

#: sha256 of the JSON list of ``(rank, mnemonic, power_w,
#: normalized_power, ipc)`` rows of the default-fidelity EPI profile.
EPI_PROFILE_DIGEST = "7e0512c39e9abc0b00400b730a4d9d0083c37087891f43ac2447da0a99a2a5fd"


def test_default_fidelity_generation_is_pinned(target):
    generator = StressmarkGenerator(target=target)
    rows = [
        (e.rank, e.mnemonic, e.power_w, e.normalized_power, e.ipc)
        for e in generator.epi_profile.entries
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == EPI_PROFILE_DIGEST

    result = generator.max_power_result
    assert result.mnemonics == ["VERLLQ", "VERLLQ", "CIB", "AXBR2", "AXBR2", "CIB"]
    assert result.power_w == 35.659
    assert result.validation_powers == [35.317, 35.025]
    assert result.evaluated == 1000
