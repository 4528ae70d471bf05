//! Golden vectors for the pair PRF `s_ij = H(tk_i ‖ H(R ‖ tk_j)) mod z`.
//!
//! The expected values were computed with the original scalar SHA-256
//! and the byte-at-a-time `u128` reduction. Any rewrite of the hash or
//! of the reduction must reproduce them exactly.

use freqywm_crypto::prf::{pair_modulus, Secret};

const MODULI: [u64; 6] = [2, 131, 1031, (1 << 32) - 1, (1 << 63) + 5, u64::MAX];

fn secrets() -> [Secret; 3] {
    [
        Secret::from_bytes([0u8; 32]),
        Secret::from_bytes([0xA5; 32]),
        Secret::from_label("golden-owner"),
    ]
}

/// Token pairs that cover an empty token, tokens around the 55/56-byte
/// padding boundary of the outer hash (token + 32-byte inner digest)
/// and tokens longer than one block.
fn token_pairs() -> Vec<(Vec<u8>, Vec<u8>)> {
    vec![
        (b"youtube.com".to_vec(), b"instagram.com".to_vec()),
        (b"".to_vec(), b"x".to_vec()),
        (vec![b'a'; 23], vec![b'b'; 24]),
        (vec![b'c'; 31], vec![b'd'; 55]),
        (vec![b'e'; 64], vec![b'f'; 100]),
    ]
}

#[rustfmt::skip]
const EXPECTED: [[[u64; 6]; 5]; 3] = [
    [
        [1, 43, 973, 2174281386, 885187445079485477, 7343080744344947106],
        [1, 2, 743, 3765842531, 118699184832754848, 11346149999005176596],
        [0, 44, 217, 43110114, 3909052083204506674, 2492722589118095589],
        [0, 130, 187, 3134516624, 602304154689493574, 8806492603699559219],
        [0, 68, 793, 1232512214, 1090936738657452880, 11004877139366213474],
    ],
    [
        [1, 73, 634, 3547716183, 5976088018252542723, 705494423800868583],
        [1, 44, 872, 1690927679, 4045927799514032401, 10404990450617519759],
        [0, 86, 553, 1032645820, 5356663242551223829, 17741623376773252165],
        [1, 122, 688, 2971533779, 7217392299242415589, 17224797147922381844],
        [0, 53, 768, 827043433, 1977622352039106398, 14762033955040290493],
    ],
    [
        [1, 35, 674, 840637837, 9119620316646563592, 11017863535231487242],
        [1, 64, 617, 1540116994, 4536225611890238616, 11789473011981071044],
        [1, 112, 667, 4232709661, 8380282292071785989, 5430383247021141331],
        [1, 31, 980, 4212613249, 143307503936173024, 9838766583718940269],
        [0, 126, 410, 335779896, 4795464894917349052, 4812270293265086946],
    ],
];

#[test]
fn pair_modulus_golden_vectors() {
    let mut got = Vec::new();
    for s in secrets() {
        let mut per_secret = Vec::new();
        for (a, b) in token_pairs() {
            per_secret.push(MODULI.map(|z| pair_modulus(&s, &a, &b, z)));
        }
        got.push(per_secret);
    }
    for (si, per_secret) in got.iter().enumerate() {
        for (pi, row) in per_secret.iter().enumerate() {
            assert_eq!(*row, EXPECTED[si][pi], "secret {si}, pair {pi}");
        }
    }
}
