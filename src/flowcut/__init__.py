"""
flowcut: brute-force information-flow analysis of message-passing frames.

Models distributed systems as frames (graphs of locations joined by
unidirectional synchronous channels), exhaustively enumerates bounded
executions as labeled partial orders, and decides disclosure properties
on them: no-disclosure, blur-limited disclosure, cut propagation,
cross-frame composition, and purge-based noninterference and
nondeducibility.
"""

from .blur import (
    AllBlur,
    BlurError,
    BlurSpec,
    IdentityBlur,
    PartitionBlur,
    PermutationBlur,
    SelectionBlur,
    SharedCore,
    SharedCoreError,
    TableBlur,
    blur_apply,
    build_shared_core,
    f_limits_flow,
    validate_blur,
    verify_composition,
    verify_cut_blur,
)
from .cuts import ChannelSetTriple, CutSpecError, find_min_cut, is_cut
from .disclosure import (
    CompatQuery,
    MergeError,
    MergeInvariantError,
    check_symmetry,
    cmpt_propagation_check,
    compatible_runs,
    merge_across_cut,
    no_disclosure,
    obs_equivalent,
)
from .enumeration import Bound, EnumerationError, ExecutionSet, enumerate_executions, enumerate_runs
from .events import (
    CanonicalizeError,
    CanonicalRun,
    Event,
    EventSystem,
    LinearityError,
    canonicalize,
    is_execution,
    is_initial_substructure,
    project,
)
from .fileformat import (
    FileFormatError,
    emit_frame_document,
    parse_frame_document,
    parse_machine_document,
)
from .frames import (
    Channel,
    ExplicitTraces,
    Frame,
    FrameError,
    InputError,
    Location,
    Lts,
    UnknownChannelError,
    location_language,
    validate_frame,
)
from .purge import (
    MachineError,
    MachineSpec,
    PurgeKind,
    check_nd,
    check_ni,
    purge,
    purge_blur,
    star_frame,
    validate_purge,
)
from .scenarios import (
    FirewallParams,
    FirewallScenario,
    ScenarioError,
    VotingParams,
    VotingScenario,
    build_firewall,
    build_voting,
)

__version__ = "0.1.0"
