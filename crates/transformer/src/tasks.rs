//! Synthetic sequence-classification tasks.
//!
//! These stand in for the paper's SQuAD/GLUE evaluations (Table III),
//! which require BERT checkpoints and datasets we do not have. Each task
//! is constructed so that attention — and therefore softmax fidelity —
//! matters to accuracy: the label depends on relations *between* tokens,
//! not on any single position.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled example: token ids and a class label.
pub type Example = (Vec<usize>, usize);

/// The synthetic task families of the accuracy experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Label = which of tokens {0, 1} occurs more often (distractors from
    /// the rest of the vocabulary are ignored).
    Majority,
    /// Label = 1 iff the adjacent pattern `[2, 3]` occurs anywhere.
    PatternMatch,
    /// Label = 1 iff the sequence of *value* tokens is non-decreasing.
    SortedOrder,
    /// Label = 1 iff the first token (the "needle") reappears later.
    NeedleRetrieval,
}

impl Task {
    /// Every task, in presentation order.
    #[must_use]
    pub fn all() -> [Task; 4] {
        [
            Task::Majority,
            Task::PatternMatch,
            Task::SortedOrder,
            Task::NeedleRetrieval,
        ]
    }

    /// Short task name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Task::Majority => "Majority",
            Task::PatternMatch => "PatternMatch",
            Task::SortedOrder => "SortedOrder",
            Task::NeedleRetrieval => "NeedleRetrieval",
        }
    }

    /// Vocabulary size this task draws from.
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        8
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        2
    }

    /// Generates `n` examples of length `seq_len` with a deterministic RNG.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 4` (tasks need room for their structure).
    #[must_use]
    pub fn generate(&self, n: usize, seq_len: usize, seed: u64) -> Vec<Example> {
        assert!(seq_len >= 4, "tasks need seq_len >= 4");
        let mut rng = StdRng::seed_from_u64(seed ^ (*self as u64).wrapping_mul(0x9e37_79b9));
        (0..n)
            .map(|_| self.generate_one(seq_len, &mut rng))
            .collect()
    }

    fn generate_one(&self, seq_len: usize, rng: &mut StdRng) -> Example {
        match self {
            Task::Majority => {
                // Signal tokens 0/1 whose counts differ by exactly one or
                // two — the model must actually count, not spot an obvious
                // imbalance — padded with distractors 4..8.
                let margin = rng.gen_range(1..=2usize);
                let budget = seq_len.saturating_sub(margin).max(2);
                let minority = rng.gen_range(1..=(budget / 2).max(1));
                let majority = minority + margin;
                let winner = rng.gen_range(0..2usize);
                let mut tokens = Vec::with_capacity(seq_len);
                tokens.extend(std::iter::repeat_n(winner, majority));
                tokens.extend(std::iter::repeat_n(1 - winner, minority));
                while tokens.len() < seq_len {
                    tokens.push(rng.gen_range(4..8));
                }
                // Fisher-Yates shuffle with the task RNG.
                for i in (1..tokens.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    tokens.swap(i, j);
                }
                (tokens, winner)
            }
            Task::PatternMatch => {
                // Fillers include the pattern tokens 2 and 3 individually,
                // so negatives contain the ingredients but never adjacent —
                // the model must attend to *pairs of positions*.
                let mut tokens: Vec<usize> = (0..seq_len).map(|_| rng.gen_range(2..8)).collect();
                let positive = rng.gen_bool(0.5);
                let has_pattern = |ts: &[usize]| ts.windows(2).any(|w| w == [2, 3]);
                if positive {
                    let pos = rng.gen_range(0..seq_len - 1);
                    tokens[pos] = 2;
                    tokens[pos + 1] = 3;
                } else {
                    // Remove accidental adjacencies by bumping the second
                    // element of each offending pair.
                    while has_pattern(&tokens) {
                        for i in 0..seq_len - 1 {
                            if tokens[i] == 2 && tokens[i + 1] == 3 {
                                tokens[i + 1] = rng.gen_range(4..8);
                            }
                        }
                    }
                }
                let label = usize::from(has_pattern(&tokens));
                (tokens, label)
            }
            Task::SortedOrder => {
                // Positives: a sorted run of values; negatives: the same
                // run with exactly one adjacent swap that breaks order —
                // a subtle, local violation.
                let n_vals = seq_len.clamp(3, 6);
                let mut vals: Vec<usize> = (0..n_vals).map(|_| rng.gen_range(0..8)).collect();
                vals.sort_unstable();
                // Ensure at least one strict ascent exists to swap.
                if vals.first() == vals.last() {
                    let last = vals[n_vals - 1];
                    vals[n_vals - 1] = (last + 1) % 8;
                    vals.sort_unstable();
                }
                let positive = rng.gen_bool(0.5);
                if !positive {
                    let ascents: Vec<usize> =
                        (0..n_vals - 1).filter(|&i| vals[i] < vals[i + 1]).collect();
                    let &i = ascents
                        .get(rng.gen_range(0..ascents.len()))
                        .expect("an ascent exists");
                    vals.swap(i, i + 1);
                }
                let mut tokens = vals.clone();
                let last = *tokens.last().expect("non-empty");
                tokens.resize(seq_len, last.max(*vals.iter().max().expect("non-empty")));
                let label = usize::from(tokens.windows(2).all(|w| w[0] <= w[1]));
                (tokens, label)
            }
            Task::NeedleRetrieval => {
                // The needle is a low token; distractors may be *other*
                // low tokens, so the model must match the value at
                // position 0, not just detect any low token.
                let needle = rng.gen_range(0..4);
                let mut tokens = Vec::with_capacity(seq_len);
                tokens.push(needle);
                for _ in 1..seq_len {
                    if rng.gen_bool(0.3) {
                        // A low-token distractor different from the needle.
                        let mut d = rng.gen_range(0..4);
                        if d == needle {
                            d = (d + 1) % 4;
                        }
                        tokens.push(d);
                    } else {
                        tokens.push(rng.gen_range(4..8));
                    }
                }
                let positive = rng.gen_bool(0.5);
                if positive {
                    let pos = rng.gen_range(1..seq_len);
                    tokens[pos] = needle;
                }
                let label = usize::from(tokens[1..].contains(&needle));
                (tokens, label)
            }
        }
    }
}

/// Splits examples into (train, test) at `train_fraction`.
///
/// # Panics
///
/// Panics if `train_fraction` is outside `(0, 1)`.
#[must_use]
pub fn train_test_split(
    examples: Vec<Example>,
    train_fraction: f64,
) -> (Vec<Example>, Vec<Example>) {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train fraction must be in (0,1)"
    );
    let cut = (examples.len() as f64 * train_fraction) as usize;
    let mut examples = examples;
    let test = examples.split_off(cut);
    (examples, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Task::Majority.generate(10, 8, 42);
        let b = Task::Majority.generate(10, 8, 42);
        assert_eq!(a, b);
        let c = Task::Majority.generate(10, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_valid_classes() {
        for task in Task::all() {
            for (tokens, label) in task.generate(50, 10, 1) {
                assert!(label < task.n_classes(), "{}", task.name());
                assert!(tokens.iter().all(|&t| t < task.vocab_size()));
                assert_eq!(tokens.len(), 10);
            }
        }
    }

    #[test]
    fn majority_labels_are_correct() {
        for (tokens, label) in Task::Majority.generate(100, 12, 7) {
            let ones = tokens.iter().filter(|&&t| t == 1).count();
            let zeros = tokens.iter().filter(|&&t| t == 0).count();
            assert_ne!(ones, zeros, "tie should have been broken");
            assert_eq!(label, usize::from(ones > zeros));
        }
    }

    #[test]
    fn pattern_labels_are_correct() {
        for (tokens, label) in Task::PatternMatch.generate(100, 10, 9) {
            let has = tokens.windows(2).any(|w| w == [2, 3]);
            assert_eq!(label, usize::from(has));
        }
    }

    #[test]
    fn needle_labels_are_correct() {
        for (tokens, label) in Task::NeedleRetrieval.generate(100, 10, 11) {
            let needle = tokens[0];
            let found = tokens[1..].contains(&needle);
            assert_eq!(label, usize::from(found));
        }
    }

    #[test]
    fn tasks_are_roughly_balanced() {
        for task in [Task::PatternMatch, Task::SortedOrder, Task::NeedleRetrieval] {
            let data = task.generate(400, 10, 3);
            let pos = data.iter().filter(|(_, l)| *l == 1).count();
            assert!(
                (100..300).contains(&pos),
                "{}: {pos}/400 positive",
                task.name()
            );
        }
    }

    #[test]
    fn split_partitions_data() {
        let data = Task::Majority.generate(100, 8, 5);
        let (train, test) = train_test_split(data, 0.8);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
    }
}
