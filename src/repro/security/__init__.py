"""Security analysis tooling: gadget scanning, payload compilation,
attack simulation and entropy analysis (paper §V)."""

from .attack import (
    SERVICE_OK,
    AttackDemo,
    AttackOutcome,
    build_vulnerable_image,
    craft_exploit_input,
    deliver,
    inject_input,
    simulate_attack,
)
from .entropy import EntropyReport, analyze_entropy
from .probing import ProbeReport, probes_to_defeat, simulate_probing
from .gadgets import (
    END_CALL,
    END_JMP,
    END_RET,
    Gadget,
    GadgetSurvey,
    attacker_visible_gadgets,
    scan_gadgets,
    survey_gadgets,
    survey_image,
)
from .payload import (
    SHELL_MAGIC,
    Payload,
    PayloadError,
    can_build_payload,
    classify_roles,
    compile_shell_payload,
)
from .adversary import AdversaryReport, AdversarySpec, JITROPAdversary
from .rotation import RotationPolicy, RotationService, RotationStats
from .race import (
    SERVICE_WORKLOAD,
    RaceResult,
    RaceSpec,
    run_race,
)

__all__ = [
    "Gadget",
    "GadgetSurvey",
    "scan_gadgets",
    "attacker_visible_gadgets",
    "survey_gadgets",
    "survey_image",
    "END_RET",
    "END_JMP",
    "END_CALL",
    "Payload",
    "PayloadError",
    "compile_shell_payload",
    "can_build_payload",
    "classify_roles",
    "SHELL_MAGIC",
    "AttackDemo",
    "AttackOutcome",
    "simulate_attack",
    "build_vulnerable_image",
    "craft_exploit_input",
    "inject_input",
    "deliver",
    "SERVICE_OK",
    "EntropyReport",
    "analyze_entropy",
    "ProbeReport",
    "simulate_probing",
    "probes_to_defeat",
    "AdversarySpec",
    "AdversaryReport",
    "JITROPAdversary",
    "RotationPolicy",
    "RotationService",
    "RotationStats",
    "RaceSpec",
    "RaceResult",
    "run_race",
    "SERVICE_WORKLOAD",
]
