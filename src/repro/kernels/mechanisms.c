/* The mechanism probes over a DL1's miss stream: one pass serves every
 * entry count of one mechanism.  A port of the Python walks of the engines
 * in repro.mechanisms.engines.
 *
 * Miss j fetched blocks[j], evicted evicted[j] (-1 for an empty way), had
 * access type types[j] (types is NULL when every access was a read) and
 * was its block's first touch when first[j] is 1.  The counts entry counts
 * in entries ascend; largest is the last.
 *
 * Victim and miss cache: one recency list of blocks, most recent first,
 * in list[0 .. fill[0]), cut at largest.  An n-entry buffer is the list's
 * first n blocks, so a hit at list position p is credited to every count
 * above p: tally[p] counts the hits there and tally[largest + p] the
 * victim swaps.
 *
 * Stream buffers: count i keeps its own entries[i] streams, least recently
 * used first, at list + entries[0] + ... + entries[i - 1], with fill[i] of
 * them allocated.  A stream is its head block: a head hit advances the
 * head by one.  tally[3i], tally[3i + 1] and tally[3i + 2] count count i's
 * hits, allocations and first touches served.
 *
 * Every tally accumulates across calls.
 */
#include <stdint.h>
#include <string.h>

enum { VICTIM = 0, MISS = 1, STREAM = 2 };

#define WRITE 1

/* Put block at the front of list[0 .. length), dropping position from:
 * the entries in front of it move back by one. */
static void to_front(int64_t *list, int64_t from, int64_t block)
{
    memmove(list + 1, list, (size_t)from * sizeof *list);
    list[0] = block;
}

static void recency_walk(const int64_t *blocks, const int64_t *evicted,
                         int64_t count, int64_t mechanism, int64_t largest,
                         int64_t *list, int64_t *fill, int64_t *tally)
{
    int64_t length = fill[0];
    for (int64_t j = 0; j < count; j++) {
        const int64_t block = blocks[j];
        int64_t position = 0;
        while (position < length && list[position] != block)
            position++;
        if (mechanism == MISS) {
            if (position < length) {
                tally[position]++;
            } else if (length < largest) {
                length++;
            } else {
                position = largest - 1;
            }
            to_front(list, position, block);
            continue;
        }
        /* Victim cache: a hit takes its block back into the DL1, and the
         * block the DL1 evicted for it (if any) goes on top. */
        const int64_t victim = evicted[j];
        if (position < length) {
            tally[position]++;
            if (victim >= 0) {
                tally[largest + position]++;
                to_front(list, position, victim);
            } else {
                memmove(list + position, list + position + 1,
                        (size_t)(length - position - 1) * sizeof *list);
                length--;
            }
        } else if (victim >= 0) {
            if (length < largest)
                length++;
            to_front(list, length - 1, victim);
        }
    }
    fill[0] = length;
}

static void stream_walk(const int64_t *blocks, const int8_t *types,
                        const uint8_t *first, int64_t count,
                        const int64_t *entries, int64_t counts,
                        int64_t *list, int64_t *fill, int64_t *tally)
{
    for (int64_t j = 0; j < count; j++) {
        const int64_t block = blocks[j];
        const int write = types != 0 && types[j] == WRITE;
        int64_t *heads = list;
        for (int64_t i = 0; i < counts; heads += entries[i], i++) {
            int64_t length = fill[i], way = length - 1;
            /* Most recently used first. */
            while (way >= 0 && heads[way] != block)
                way--;
            if (way >= 0) {
                tally[3 * i]++;
                tally[3 * i + 2] += first[j];
                memmove(heads + way, heads + way + 1,
                        (size_t)(length - way - 1) * sizeof *heads);
                heads[length - 1] = block + 1;
            } else if (!write) {
                tally[3 * i + 1]++;
                if (length == entries[i])
                    memmove(heads, heads + 1, (size_t)(length - 1) * sizeof *heads);
                else
                    fill[i] = ++length;
                heads[length - 1] = block + 1;
            }
        }
    }
}

void mechanism_walk(const int64_t *blocks, const int64_t *evicted,
                    const int8_t *types, const uint8_t *first, int64_t count,
                    int64_t mechanism, const int64_t *entries, int64_t counts,
                    int64_t *list, int64_t *fill, int64_t *tally)
{
    if (mechanism == STREAM)
        stream_walk(blocks, types, first, count, entries, counts, list, fill, tally);
    else
        recency_walk(blocks, evicted, count, mechanism, entries[counts - 1],
                     list, fill, tally);
}
