#!/usr/bin/env python3
"""End-to-end demo on the synthetic task, small enough to finish in about a
minute: warm a classifier, pretrain the rewriter, fine-tune it against the
classifier's reward, then train an augmented classifier and compare test
accuracy with and without rewrite ensembling.
"""

import argparse
import time

from riff import classifier as clf
from riff import data, decoding, training
from riff.classifier import TuningMode, Verbalizer
from riff.policy import PolicyConfig, PolicyParams, pretrain_mle
from riff.training import RunConfig, fewshot_split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shots", type=int, default=16)
    parser.add_argument("--steps", type=int, default=96)
    args = parser.parse_args()
    start = time.time()

    task = data.gen_synthetic_task(20, 2, 128, 64, seed=0)
    split = fewshot_split(task.train, args.shots, seed=args.seed)
    verb = Verbalizer(task.verbalizer_ids)

    print("== classifier warmup (plain supervised) ==")
    ccfg = clf.ClassifierConfig(vocab_size=20, num_labels=2, embed_dim=16)
    cparams = clf.ClassifierParams.init_random(ccfg, TuningMode.ALL, seed=59 + args.seed)
    warm_cfg = RunConfig(steps=200, lr=0.01, batch_size=8, checkpoint_interval=200, seed=args.seed)
    warm = training.train_classifier_augmented(
        cparams, None, task, split, m=0, mode=TuningMode.ALL, cfg=warm_cfg
    )
    classifier = warm[-1].params.copy()
    print(f"validation accuracy {warm[-1].metrics[training.METRIC_INCL]:.3f}")

    print("== rewriter pretraining on rule-based rewrites ==")
    pool = data.gen_synthetic_task(20, 2, 128, 0, seed=7919)
    corpus = data.gen_rewriter_corpus(pool.train, 2, seed=104729)
    pcfg = PolicyConfig(vocab_size=20, embed_dim=12, hidden_dim=24, max_len=24)
    policy = pretrain_mle(
        PolicyParams.init_random(pcfg, seed=31 + args.seed),
        corpus, epochs=20, lr=0.02, seed=47 + args.seed,
    )

    print("== reward-guided rewriter fine-tuning ==")
    cfg = RunConfig(m=8, lr=2e-3, steps=args.steps, batch_size=8,
                    checkpoint_interval=8, seed=args.seed)
    baseline = training.evaluate_ensemble_accuracy(
        policy, classifier, task.template, verb, split.validation, cfg.m, False, cfg
    )
    checkpoints = training.finetune_paraphraser(policy, classifier, task, split, cfg)
    best = training.select_best_checkpoint(checkpoints, training.METRIC_EXCL)
    print(f"rewrite-only validation accuracy: pretrained {baseline:.3f} -> "
          f"best checkpoint {best.metrics[training.METRIC_EXCL]:.3f} (step {best.step})")
    tuned_policy = best.params

    print("== augmented classifier training with cached rewrites ==")
    fresh = clf.ClassifierParams.init_random(ccfg, TuningMode.ALL, seed=59 + args.seed)
    aug_cfg = RunConfig(steps=200, lr=0.01, batch_size=8, checkpoint_interval=40, seed=args.seed)
    aug = training.train_classifier_augmented(
        fresh, tuned_policy, task, split, m=8, mode=TuningMode.ALL, cfg=aug_cfg
    )
    aug_best = training.select_best_checkpoint(aug, training.METRIC_INCL).params

    plain_test = training.plain_accuracy(aug_best, task.template, verb, task.test)
    ensemble_test = training.evaluate_ensemble_accuracy(
        tuned_policy, aug_best, task.template, verb, task.test, 8, True, cfg
    )
    print(f"test accuracy: plain {plain_test:.3f}, rewrite ensemble {ensemble_test:.3f}")

    sample = task.test[0]
    dc = training.decode_config(cfg, training.derive_seed(cfg.seed, 0xD3))
    rewrites = decoding.diverse_beam(tuned_policy, sample.x, dc)
    print(f"input {sample.x.content} (label {sample.y}) rewrites:")
    for z in rewrites[:4]:
        print(f"  {data.strip_scaffold(z).content}")
    print(f"done in {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
