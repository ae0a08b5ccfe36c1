"""Swing-equation grid simulation with storage power / virtual-inertia MPC."""

from .grid import (DisturbanceEvent, EquilibriumError, GeneratorBus, GridError,
                   GridModel, Line, LoadBus, StorageBus, line_susceptance,
                   solve_equilibrium)
from .dynamics import (ControlInput, SimulationAbort, SystemState, Trajectory,
                       Violation, constant_policy, euler_step, monitor_constraints,
                       simulate, swing_jacobian, swing_rhs)
from .qp import (ConvexProgram, DualSet, QpError, QpWorkspace, SolveReport,
                 kkt_residual)
from .mpc import (HorizonProgram, LtvModel, MpcConfig, MpcConfigError,
                  MpcController, SqpSettings, StepRecord, StorageRegime,
                  assemble_horizon_program, linearize_dynamics)
from .dmpc import (AdmmSettings, AreaPartition, AreaProgram, ConsensusState,
                   DistributedMpcController, PartitionError, area_subproblem_solve,
                   partition_grid, pdc_admm_step)
from .scenario import (Scenario, ScenarioError, bundled_scenario_path,
                       parse_scenario, write_scenario)

__version__ = "0.1.0"
