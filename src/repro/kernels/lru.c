/* The Janapsatya LRU walk over flat int64 set storage: a port of the walk
 * loop in repro.lru.janapsatya.JanapsatyaSimulator.
 *
 * Level k's sets start at set offsets[k], and a block maps to set
 * offsets[k] + (block & masks[k]).  A set's recency list is its A entries
 * starting at set * A, most recent first, of which the first fill[set] are
 * valid; the walk reads no tag past them, so only fill starts zeroed.  Tags
 * hold block + 1, as the other cache walks store them.
 *
 * tally receives, per level k, the hits at each recency position p at
 * k * A + p, then the tags compared by walks that missed; the caller
 * derives every associativity's misses and every other counter from them.
 */
#include <stdint.h>

void lru_walk(const int64_t *blocks, int64_t count, int64_t levels,
              int64_t associativity, const int64_t *masks,
              const int64_t *offsets, int64_t *tags, int64_t *fill,
              int64_t mru_stop, int64_t *tally)
{
    int64_t compared = 0;

    for (int64_t k = 0; k < levels * associativity; k++)
        tally[k] = 0;

    for (int64_t i = 0; i < count; i++) {
        const int64_t block = blocks[i];
        const int64_t tag = block + 1;

        for (int64_t level = 0; level < levels; level++) {
            const int64_t set = offsets[level] + (block & masks[level]);
            int64_t *recency = tags + set * associativity;
            const int64_t length = fill[set];
            int64_t position = 0;
            while (position < length && recency[position] != tag)
                position++;

            if (position == length) {
                /* Miss: every valid tag was compared.  Insert at the MRU
                 * position, dropping the LRU tag of a full set. */
                compared += length;
                if (length < associativity)
                    fill[set] = length + 1;
                else
                    position = associativity - 1;
            } else {
                tally[level * associativity + position]++;
                if (position == 0) {
                    /* Found at MRU: moving it to MRU is a no-op, and it is
                     * at MRU in every deeper set too. */
                    if (mru_stop)
                        break;
                    continue;
                }
            }
            /* Move (or insert) the tag to the MRU position. */
            for (int64_t p = position; p > 0; p--)
                recency[p] = recency[p - 1];
            recency[0] = tag;
        }
    }

    tally[levels * associativity] = compared;
}
