"""Four-variant ablation harness: baseline, global context, local context, full.

Every variant trains with the same seed and schedule, then evaluates on
the held-out pairs; the result is a PSNR/SSIM table plus a structural
census proving each variant contains exactly the modules its flags claim.
"""

import copy
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .dataset import scan_dataset
from .inference import evaluate_network
from .training import load_network, train

VARIANTS = (
    ("baseline", False, False),
    ("global-context", True, False),
    ("local-context", False, True),
    ("full", True, True),
)


@dataclass
class VariantResult:
    name: str
    use_global_context: bool
    use_local_context: bool
    structure: dict[str, int]
    psnr_db: float
    ssim: float


def run_ablation(config: RunConfig, echo=None) -> list[VariantResult]:
    config.validate()
    eval_root = Path(config.eval_data_root or config.data_root)
    eval_records = scan_dataset(eval_root)
    base_out = Path(config.output_dir)
    results = []
    for name, gc, lc in VARIANTS:
        variant = copy.deepcopy(config)
        variant.network.use_global_context = gc
        variant.network.use_local_context = lc
        variant.output_dir = str(base_out / name)
        if echo is not None:
            echo(f"[{name}] training {variant.schedule.total_iters} iterations")
        outcome = train(variant)
        network = load_network(outcome.final_checkpoint)
        report = evaluate_network(network, eval_records)
        results.append(VariantResult(name, gc, lc, network.structure(),
                                     report.mean_psnr, report.mean_ssim))
        if echo is not None:
            echo(f"[{name}] PSNR {report.mean_psnr:.2f} dB  SSIM {report.mean_ssim:.4f}")
    return results


def format_ablation_table(results: list[VariantResult]) -> str:
    lines = [f"{'variant':<16} {'GC':>3} {'LC':>3} {'blocks':>12} "
             f"{'PSNR(dB)':>10} {'SSIM':>8}"]
    for r in results:
        blocks = f"{r.structure['attention_blocks']}a/{r.structure['dense_blocks']}d"
        lines.append(
            f"{r.name:<16} {'yes' if r.use_global_context else '-':>3} "
            f"{'yes' if r.use_local_context else '-':>3} {blocks:>12} "
            f"{r.psnr_db:>10.4f} {r.ssim:>8.4f}")
    return "\n".join(lines)
