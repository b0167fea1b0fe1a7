//! Fixed-length sequence encoding: WordPiece greedy longest-match plus
//! `[CLS]` prefixing, truncation and padding — the input format of the
//! attribute embedding module (paper Eq. 5).

use crate::pretokenize::pretokenize;
use crate::vocab::Vocab;

/// A fixed-length encoded sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Encoded {
    /// Token ids, length exactly the `max_len` the row was encoded at
    /// (`[CLS] tok... [PAD]...`): a training batch's `max_seq`, or an eval
    /// batch's longest row.
    pub ids: Vec<u32>,
    /// 1 for real tokens (incl. `[CLS]`), 0 for padding; same length.
    pub mask: Vec<u8>,
}

impl Encoded {
    /// Number of non-padding positions.
    pub fn real_len(&self) -> usize {
        self.mask.iter().map(|&m| m as usize).sum()
    }
}

/// Encodes text against a trained [`Vocab`].
#[derive(Clone, Debug)]
pub struct Tokenizer {
    vocab: Vocab,
    /// Words longer than this many characters map to `[UNK]` outright
    /// (mirrors BERT's `max_input_chars_per_word`).
    max_word_chars: usize,
}

impl Tokenizer {
    /// Wraps a vocabulary.
    pub fn new(vocab: Vocab) -> Self {
        Tokenizer { vocab, max_word_chars: 64 }
    }

    /// The wrapped vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// WordPiece-tokenizes a single word into subword ids (no specials).
    /// Falls back to a single `[UNK]` when any position cannot be matched.
    pub fn word_to_ids(&self, word: &str) -> Vec<u32> {
        let chars: Vec<char> = word.chars().collect();
        if chars.is_empty() {
            return Vec::new();
        }
        if chars.len() > self.max_word_chars {
            return vec![self.vocab.unk_id()];
        }
        let mut ids = Vec::new();
        let mut start = 0;
        while start < chars.len() {
            let mut end = chars.len();
            let mut matched = None;
            while end > start {
                let body: String = chars[start..end].iter().collect();
                let candidate = if start == 0 { body } else { format!("##{body}") };
                if let Some(id) = self.vocab.id_of(&candidate) {
                    matched = Some((id, end));
                    break;
                }
                end -= 1;
            }
            match matched {
                Some((id, new_start)) => {
                    ids.push(id);
                    start = new_start;
                }
                None => return vec![self.vocab.unk_id()],
            }
        }
        ids
    }

    /// Tokenizes free text into subword ids (no specials, no padding).
    pub fn text_to_ids(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for word in pretokenize(text) {
            ids.extend(self.word_to_ids(&word));
        }
        ids
    }

    /// Full encoding: `[CLS]` + subwords, truncated and padded to `max_len`.
    pub fn encode(&self, text: &str, max_len: usize) -> Encoded {
        assert!(max_len >= 1, "max_len must fit at least [CLS]");
        let mut ids = Vec::with_capacity(max_len);
        ids.push(self.vocab.cls_id());
        for id in self.text_to_ids(text) {
            if ids.len() >= max_len {
                break;
            }
            ids.push(id);
        }
        let real = ids.len();
        ids.resize(max_len, self.vocab.pad_id());
        let mut mask = vec![0u8; max_len];
        mask[..real].iter_mut().for_each(|m| *m = 1);
        Encoded { ids, mask }
    }

    /// Encodes a pre-tokenized id sequence (already produced by
    /// [`Tokenizer::text_to_ids`]) with `[CLS]`/padding. Lets callers cache
    /// the expensive subword pass.
    pub fn encode_ids(&self, body: &[u32], max_len: usize) -> Encoded {
        assert!(max_len >= 1);
        let take = body.len().min(max_len - 1);
        let mut ids = Vec::with_capacity(max_len);
        ids.push(self.vocab.cls_id());
        ids.extend_from_slice(&body[..take]);
        let real = ids.len();
        ids.resize(max_len, self.vocab.pad_id());
        let mut mask = vec![0u8; max_len];
        mask[..real].iter_mut().for_each(|m| *m = 1);
        Encoded { ids, mask }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordpiece::WordPieceTrainer;

    fn toy_tokenizer() -> Tokenizer {
        let corpus = vec![
            "portugal portugal portugal madrid madrid ronaldo ronaldo ronaldo",
            "real madrid club portugal lisbon",
        ];
        Tokenizer::new(WordPieceTrainer::new(300).train(corpus))
    }

    #[test]
    fn encode_layout() {
        let t = toy_tokenizer();
        let e = t.encode("ronaldo portugal", 12);
        assert_eq!(e.ids.len(), 12);
        assert_eq!(e.mask.len(), 12);
        assert_eq!(e.ids[0], t.vocab().cls_id());
        assert!(e.real_len() >= 3);
        // padding is contiguous at the end
        let real = e.real_len();
        assert!(e.ids[real..].iter().all(|&i| i == t.vocab().pad_id()));
        assert!(e.mask[..real].iter().all(|&m| m == 1));
        assert!(e.mask[real..].iter().all(|&m| m == 0));
    }

    #[test]
    fn truncation_respects_max_len() {
        let t = toy_tokenizer();
        let long = "portugal ".repeat(100);
        let e = t.encode(&long, 8);
        assert_eq!(e.ids.len(), 8);
        assert_eq!(e.real_len(), 8);
    }

    #[test]
    fn unknown_word_does_not_panic() {
        let t = toy_tokenizer();
        // Characters never seen in training.
        let ids = t.word_to_ids("北京");
        assert_eq!(ids, vec![t.vocab().unk_id()]);
    }

    #[test]
    fn known_words_avoid_unk() {
        let t = toy_tokenizer();
        let ids = t.text_to_ids("madrid lisbon");
        assert!(!ids.contains(&t.vocab().unk_id()), "{ids:?}");
    }

    #[test]
    fn subwords_reconstruct_word() {
        let t = toy_tokenizer();
        let ids = t.word_to_ids("ronaldo");
        let rebuilt: String =
            ids.iter().map(|&i| t.vocab().token_of(i).trim_start_matches("##")).collect();
        assert_eq!(rebuilt, "ronaldo");
    }

    #[test]
    fn overlong_word_is_unk() {
        let t = toy_tokenizer();
        let w = "a".repeat(100);
        assert_eq!(t.word_to_ids(&w), vec![t.vocab().unk_id()]);
    }

    #[test]
    fn encode_ids_matches_encode() {
        let t = toy_tokenizer();
        let text = "real madrid portugal";
        let body = t.text_to_ids(text);
        assert_eq!(t.encode_ids(&body, 10), t.encode(text, 10));
    }

    #[test]
    fn determinism() {
        let t = toy_tokenizer();
        assert_eq!(t.encode("club portugal", 16), t.encode("club portugal", 16));
    }
}
